// net::Client — the blocking TCP counterpart of NetServer: one request on
// the wire at a time, responses matched by request id. This is the simple
// integration surface (examples, tests, CI smoke); high-rate callers can
// speak the frame protocol directly and pipeline, which the server already
// supports.
//
// Every call either returns with the outputs written or throws:
//   std::runtime_error    - transport failure / server Error frame (the
//                           server's message is the exception text), a
//                           peer that closed (never SIGPIPE), or a send or
//                           receive that waited `timeout_ms` for progress
//   std::invalid_argument - arguments that cannot form a valid frame
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "net/frame.hpp"

namespace xorec::net {

class Client {
 public:
  /// Connects immediately (blocking); throws std::runtime_error on failure.
  Client(const std::string& host, uint16_t port, int timeout_ms = 5000);
  ~Client();

  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  /// Remote encode: ship k data fragments, receive the m parity fragments
  /// into `parity` (caller-sized from the spec's geometry; mismatch throws).
  void encode(const std::string& spec, const uint8_t* const* data, uint32_t k,
              uint8_t* const* parity, uint32_t m, size_t frag_len);

  /// Remote degraded read / repair: ship the survivors, receive the
  /// fragments named by `erased` into `out` (parallel, ascending order).
  void reconstruct(const std::string& spec, const std::vector<uint32_t>& available,
                   const uint8_t* const* available_frags,
                   const std::vector<uint32_t>& erased, uint8_t* const* out,
                   size_t frag_len);

  /// Liveness round-trip.
  void ping();

  uint64_t requests_sent() const { return next_request_id_; }

 private:
  /// Send one frame, block for its response; returns the response view with
  /// `body` holding the bytes the view points into.
  FrameView roundtrip(const std::vector<uint8_t>& frame, std::vector<uint8_t>& body);

  int fd_ = -1;
  int timeout_ms_;
  uint64_t next_request_id_ = 0;
};

}  // namespace xorec::net
