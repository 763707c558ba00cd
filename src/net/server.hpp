// NetServer: the serving front-end — a poll()-driven event loop that turns
// wire frames into CodecService work on one thread.
//
// Each poll() pass runs to completion on the loop thread:
//
//   1. accept; read every ready frame, TCP and UDP, and submit each job
//      through a shared ServiceHandle (dispatch);
//   2. get() the pass's jobs in submission order — by runtime::TaskFuture's
//      waiter-runs rule a job no shard worker has started runs right here,
//      and one a worker already took runs there in parallel while the loop
//      waits (a large job the loop runs lends row parts to idle shard
//      workers, runtime/executor.hpp);
//   3. finalize each response (body CRC + 56-byte header) and queue it, send
//      UDP acks;
//   4. write every connection with queued responses, without a further
//      poll() round for POLLOUT.
//
// A request therefore costs no thread hand-off when the loop runs its job,
// and one (the worker's) when a shard worker got there first. A response
// waits only for the jobs submitted before it in its pass. The price:
// while the loop thread runs a job, it reads no new frame, so reads and
// pings on other connections wait for the pass's jobs to end.
//
// The loop parses a request, points the codec DIRECTLY at the receive
// buffer (FrameView payload spans) and at the preallocated response frame
// (parity/rebuilt strips are computed in place in the bytes that will be
// written to the socket). Each connection runs a state machine
// reading-header -> reading-body -> (executing on the service) -> writing;
// responses carry the request id, and a connection may pipeline several
// requests into one pass.
//
// Flow control, two levels:
//   per-connection: at most max_inflight_per_conn requests submitted per
//     pass; beyond that the loop stops reading that socket until the pass
//     ends (TCP backpressure reaches the peer).
//   global: before submitting, the loop checks the pool shard's queue depth
//     (BatchCoder::pending(), i.e. TaskQueue::depth()); at max_queue_depth
//     the parsed request parks in the connection's deferred slot and reads
//     pause until a later pass finds room — counted in
//     stats().backpressure_stalls.
//
// The UDP socket shares the loop: strip packets feed a per-peer
// GroupAssembler; a completed group with losses takes the same
// plan_reconstruct degraded-read path (submitted with the pass's other
// jobs), and the receipt (GroupAck) is sent when the rebuild lands. This
// is how cluster repair traffic is served over the wire: a repair client
// ships survivor strips in a ReconstructRequest (or strip packets) and gets
// rebuilt strips back.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>

#include "api/service.hpp"

namespace xorec::net {

struct ServerOptions {
  std::string host = "127.0.0.1";
  uint16_t tcp_port = 0;  // 0 = ephemeral (read back via tcp_port())
  uint16_t udp_port = 0;
  size_t max_inflight_per_conn = 8;
  size_t max_queue_depth = 256;  // shard-queue depth that parks new requests
  size_t max_connections = 64;
};

struct NetServerStats {
  size_t connections_accepted = 0;
  size_t connections_open = 0;
  size_t requests = 0;        // well-formed TCP requests dispatched
  size_t responses = 0;       // Response frames written (incl. Pong)
  size_t errors = 0;          // Error frames written + fatal parse closes
  size_t backpressure_stalls = 0;
  uint64_t tcp_bytes_in = 0;
  uint64_t tcp_bytes_out = 0;
  /// Scatter/gather send-path counters: responses leave as (header, body)
  /// segment pairs through one writev(2) per loop pass, batching across all
  /// frames queued on a connection. `gather_bytes_saved` counts body bytes
  /// that were handed to the socket where they were computed instead of
  /// being memcpy'd into a contiguous header+body frame first.
  size_t writev_calls = 0;
  size_t writev_segments = 0;       // iovec entries across all writev calls
  uint64_t gather_bytes_saved = 0;  // response-body bytes never re-copied
  size_t udp_groups = 0;           // stripe groups completed
  size_t udp_degraded_reads = 0;   // groups that needed reconstruction
  size_t udp_unrecoverable = 0;
};

class NetServer {
 public:
  /// Binds both sockets immediately (so the ports are known) but serves
  /// nothing until start(). Throws std::runtime_error on bind failure.
  NetServer(CodecService& service, ServerOptions opt = {});
  ~NetServer();  // stop()s if still running

  NetServer(const NetServer&) = delete;
  NetServer& operator=(const NetServer&) = delete;

  void start();
  /// Stops accepting, lets the current pass finish its jobs, joins the loop
  /// thread and closes every connection. start() may follow.
  void stop();

  uint16_t tcp_port() const;
  uint16_t udp_port() const;
  NetServerStats stats() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace xorec::net
