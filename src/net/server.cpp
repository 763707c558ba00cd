#include "net/server.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstring>
#include <deque>
#include <map>
#include <optional>
#include <stdexcept>
#include <thread>
#include <unordered_map>
#include <vector>

#include "net/datagram.hpp"
#include "net/frame.hpp"

namespace xorec::net {

namespace {

void set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
}

std::vector<uint8_t> error_frame(uint64_t request_id, std::string_view msg) {
  FrameHeader h;
  h.type = FrameType::Error;
  h.request_id = request_id;
  return build_frame(h, msg.substr(0, wire::kMaxSpecLen), nullptr);
}

uint64_t low_bits(uint32_t n) {
  return n >= 64 ? ~uint64_t{0} : (uint64_t{1} << n) - 1;
}

}  // namespace

struct NetServer::Impl {
  // ---- per-connection state (event-loop thread only) -----------------------

  struct Deferred {
    FrameHeader header;
    std::vector<uint8_t> body;
  };

  /// One queued response: up to two gather segments. Small frames (errors,
  /// pongs) travel whole in `head`; codec responses keep the 56-byte header
  /// and the strip payload in the separate buffers they were produced in,
  /// and writev stitches them on the wire.
  struct Outbound {
    std::vector<uint8_t> head;
    std::vector<uint8_t> body;  // may be empty
    size_t size() const { return head.size() + body.size(); }
  };

  struct Conn {
    uint64_t id = 0;
    int fd = -1;
    // reading-header -> reading-body state machine
    uint8_t header_buf[wire::kFrameHeaderSize];
    size_t header_got = 0;
    bool in_body = false;
    FrameHeader header;
    std::vector<uint8_t> body;
    size_t body_got = 0;
    // write side: queued response frames, front partially written
    std::deque<Outbound> outbox;
    size_t out_off = 0;  // bytes of the FRONT outbound already written
    size_t inflight = 0;       // submitted this pass, answered at its end
    bool closing = false;      // drain outbox, then close (framing lost)
    std::optional<Deferred> deferred;  // parsed request parked on backpressure
  };

  /// One in-flight TCP request: owns the request body (the codec reads the
  /// wire bytes in place) and the preallocated response BODY (the codec
  /// writes parity/rebuilt strips into the bytes that will hit the socket —
  /// the header is encoded separately and writev gathers the two).
  struct Req {
    uint64_t conn_id = 0;
    std::vector<uint8_t> body;
    std::vector<const uint8_t*> in_ptrs;
    std::vector<uint8_t*> out_ptrs;
    FrameHeader rh;  // response header; body_crc finalized when the job ends
    std::vector<uint8_t> resp_body;
    ServiceHandle* handle = nullptr;  // a `handles` entry: never erased
  };

  /// One in-flight UDP degraded read: the group arena is both the survivor
  /// source and the rebuild destination.
  struct UdpJob {
    StripeGroup g;
    std::vector<const uint8_t*> in_ptrs;
    std::vector<uint8_t*> out_ptrs;
    sockaddr_in to{};
    GroupAck ack;
    ServiceHandle* handle = nullptr;
  };

  /// A job submitted in the current pass; exactly one of tcp / udp is set.
  /// The boxes keep the job's buffers at fixed addresses while it runs.
  struct Pending {
    runtime::TaskFuture fut;
    std::unique_ptr<Req> tcp;
    std::unique_ptr<UdpJob> udp;
  };

  // ---- members -------------------------------------------------------------

  CodecService& service;
  ServerOptions opt;
  int tcp_fd = -1, udp_fd = -1;
  int wake_r = -1, wake_w = -1;  // stop() wakes poll()
  uint16_t bound_tcp_port = 0, bound_udp_port = 0;

  std::thread loop_thread;
  std::atomic<bool> running{false};
  bool started = false;

  // loop-thread-only state
  std::map<std::string, ServiceHandle> handles;
  uint64_t next_conn_id = 1;
  std::unordered_map<int, std::unique_ptr<Conn>> conns;      // fd -> conn
  std::unordered_map<uint64_t, Conn*> by_id;
  std::map<std::pair<uint32_t, uint16_t>, GroupAssembler> assemblers;  // per peer
  std::vector<Pending> pass_jobs;  // submission order
  std::vector<int> ready_fds;      // write_outboxes scratch

  std::atomic<size_t> connections_accepted{0}, open_conns{0};
  std::atomic<size_t> requests{0}, responses{0}, errors{0}, backpressure_stalls{0};
  std::atomic<uint64_t> tcp_bytes_in{0}, tcp_bytes_out{0};
  std::atomic<size_t> writev_calls{0}, writev_segments{0};
  std::atomic<uint64_t> gather_bytes_saved{0};
  std::atomic<size_t> udp_groups{0}, udp_degraded{0}, udp_unrecoverable{0};

  Impl(CodecService& svc, ServerOptions o) : service(svc), opt(std::move(o)) {
    // Bind both sockets up front so ephemeral ports are known before start().
    tcp_fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (tcp_fd < 0) throw std::runtime_error("NetServer: socket() failed");
    const int one = 1;
    (void)::setsockopt(tcp_fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    sockaddr_in sa{};
    sa.sin_family = AF_INET;
    const UdpAddress resolved = udp_address(opt.host, opt.tcp_port);
    sa.sin_addr.s_addr = htonl(resolved.ip);
    sa.sin_port = htons(opt.tcp_port);
    if (::bind(tcp_fd, reinterpret_cast<sockaddr*>(&sa), sizeof(sa)) != 0 ||
        ::listen(tcp_fd, 16) != 0) {
      ::close(tcp_fd);
      throw std::runtime_error("NetServer: TCP bind/listen failed");
    }
    set_nonblocking(tcp_fd);
    socklen_t len = sizeof(sa);
    ::getsockname(tcp_fd, reinterpret_cast<sockaddr*>(&sa), &len);
    bound_tcp_port = ntohs(sa.sin_port);

    udp_fd = open_udp_socket(opt.host, opt.udp_port);
    set_nonblocking(udp_fd);
    bound_udp_port = local_udp_port(udp_fd);

    int pipe_fds[2];
    if (::pipe(pipe_fds) != 0) {
      ::close(tcp_fd);
      ::close(udp_fd);
      throw std::runtime_error("NetServer: pipe() failed");
    }
    wake_r = pipe_fds[0];
    wake_w = pipe_fds[1];
    set_nonblocking(wake_r);
    set_nonblocking(wake_w);
  }

  ~Impl() {
    stop();
    for (int fd : {tcp_fd, udp_fd, wake_r, wake_w})
      if (fd >= 0) ::close(fd);
  }

  // ---- lifecycle -----------------------------------------------------------

  void start() {
    if (started) return;
    started = true;
    running.store(true);
    loop_thread = std::thread([this] { loop_main(); });
  }

  void stop() {
    if (!started) return;
    running.store(false);
    const uint8_t b = 1;
    (void)!::write(wake_w, &b, 1);  // EAGAIN = already pending, fine
    // A pass always finishes its own jobs, so once the loop has exited no
    // job references a request or response buffer.
    if (loop_thread.joinable()) loop_thread.join();
    for (auto& [fd, conn] : conns) ::close(fd);
    conns.clear();
    by_id.clear();
    open_conns.store(0);
    started = false;
  }

  // ---- event loop ----------------------------------------------------------

  bool can_read(const Conn& c) const {
    return !c.closing && !c.deferred && c.inflight < opt.max_inflight_per_conn;
  }

  /// One pass: read and dispatch every ready frame (TCP and UDP), answer
  /// the pass's jobs in submission order, then write every non-empty
  /// outbox.
  void loop_main() {
    std::vector<pollfd> fds;
    std::vector<int> conn_fds;
    while (running.load()) {
      fds.clear();
      conn_fds.clear();
      fds.push_back({wake_r, POLLIN, 0});
      fds.push_back({tcp_fd,
                     static_cast<short>(conns.size() < opt.max_connections ? POLLIN : 0),
                     0});
      fds.push_back({udp_fd, POLLIN, 0});
      for (auto& [fd, conn] : conns) {
        short ev = 0;
        if (can_read(*conn)) ev |= POLLIN;
        if (!conn->outbox.empty()) ev |= POLLOUT;  // a write that hit EAGAIN
        fds.push_back({fd, ev, 0});
        conn_fds.push_back(fd);
      }
      ::poll(fds.data(), fds.size(), 20);
      if (!running.load()) break;

      if (fds[0].revents & POLLIN) {  // drain wake bytes
        uint8_t buf[64];
        while (::read(wake_r, buf, sizeof(buf)) > 0) {
        }
      }
      if (fds[1].revents & POLLIN) handle_accept();
      if (fds[2].revents & POLLIN) handle_udp();
      for (size_t i = 0; i < conn_fds.size(); ++i) {
        const short revents = fds[3 + i].revents;
        auto it = conns.find(conn_fds[i]);
        if (it == conns.end()) continue;
        if (revents & (POLLERR | POLLHUP)) {
          close_conn(conn_fds[i]);
          continue;
        }
        if (revents & POLLIN) handle_read(*it->second);
      }
      retry_deferred();
      finish_pass();
      write_outboxes();
    }
  }

  void retry_deferred() {
    for (auto& [fd, conn] : conns) {
      if (!conn->deferred) continue;
      Deferred d = std::move(*conn->deferred);
      conn->deferred.reset();
      dispatch(*conn, d.header, std::move(d.body), /*retry=*/true);
    }
  }

  /// get() the pass's jobs in submission order and queue their answers. By
  /// runtime::TaskFuture's waiter-runs rule a job no shard worker has
  /// started runs here, on the loop thread; one a worker took is waited
  /// for while it runs there, in parallel with the jobs after it.
  void finish_pass() {
    for (Pending& p : pass_jobs) {
      bool ok = true;
      std::string err;
      try {
        p.fut.get();
      } catch (const std::exception& e) {
        ok = false;
        err = e.what();
      }
      if (p.tcp)
        finish_tcp(*p.tcp, ok, err);
      else
        finish_udp(*p.udp, ok);
    }
    pass_jobs.clear();
  }

  void finish_tcp(Req& req, bool ok, const std::string& err) {
    auto it = by_id.find(req.conn_id);
    if (it == by_id.end()) return;  // connection already gone
    Conn& c = *it->second;
    --c.inflight;
    if (!ok) {
      queue_frame(c, error_frame(req.rh.request_id, err), true);
      return;
    }
    // The body stays where the codec wrote it; only the 56-byte header is
    // materialized here. writev joins the two on the wire.
    req.rh.body_crc = crc32(req.resp_body.data(), req.resp_body.size());
    std::vector<uint8_t> head(wire::kFrameHeaderSize);
    encode_frame_header(req.rh, head.data());
    req.handle->note_net_request(wire::kFrameHeaderSize + req.body.size(),
                                 head.size() + req.resp_body.size());
    queue_segments(c, std::move(head), std::move(req.resp_body), false);
  }

  /// Write every connection with queued responses now rather than after
  /// another poll() round for POLLOUT. The fds are collected first because
  /// handle_write may close a connection; a closing connection whose
  /// outbox has drained is closed here.
  void write_outboxes() {
    ready_fds.clear();
    for (auto& [fd, conn] : conns)
      if (!conn->outbox.empty()) ready_fds.push_back(fd);
    for (int fd : ready_fds) {
      Conn& c = *conns.at(fd);
      if (handle_write(c) && c.closing && c.outbox.empty()) close_conn(fd);
    }
  }

  void handle_accept() {
    for (;;) {
      const int fd = ::accept(tcp_fd, nullptr, nullptr);
      if (fd < 0) return;
      if (conns.size() >= opt.max_connections) {
        ::close(fd);
        return;
      }
      set_nonblocking(fd);
      const int one = 1;
      (void)::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
      auto conn = std::make_unique<Conn>();
      conn->id = next_conn_id++;
      conn->fd = fd;
      by_id[conn->id] = conn.get();
      conns.emplace(fd, std::move(conn));
      connections_accepted.fetch_add(1);
      open_conns.fetch_add(1);
    }
  }

  void close_conn(int fd) {
    auto it = conns.find(fd);
    if (it == conns.end()) return;
    by_id.erase(it->second->id);  // in-flight responses for it get dropped
    ::close(fd);
    conns.erase(it);
    open_conns.fetch_sub(1);
  }

  void queue_frame(Conn& c, std::vector<uint8_t> bytes, bool is_error) {
    queue_segments(c, std::move(bytes), {}, is_error);
  }

  void queue_segments(Conn& c, std::vector<uint8_t> head, std::vector<uint8_t> body,
                      bool is_error) {
    (is_error ? errors : responses).fetch_add(1);
    // Every body byte leaves the process from the buffer the codec wrote it
    // in — the copy a contiguous header+body frame would have paid.
    gather_bytes_saved.fetch_add(body.size());
    c.outbox.push_back(Outbound{std::move(head), std::move(body)});
  }

  // ---- TCP read / write ----------------------------------------------------

  void handle_read(Conn& c) {
    while (can_read(c)) {
      if (!c.in_body) {
        const ssize_t n = ::read(c.fd, c.header_buf + c.header_got,
                                 wire::kFrameHeaderSize - c.header_got);
        if (n == 0) {
          close_conn(c.fd);
          return;
        }
        if (n < 0) return;  // EAGAIN
        c.header_got += static_cast<size_t>(n);
        tcp_bytes_in.fetch_add(static_cast<uint64_t>(n));
        if (c.header_got < wire::kFrameHeaderSize) continue;
        c.header_got = 0;
        const FrameError err =
            decode_frame_header(c.header_buf, wire::kFrameHeaderSize, c.header);
        if (err != FrameError::Ok) {
          // A bad header loses the framing: answer once, then close.
          queue_frame(c, error_frame(0, frame_error_name(err)), true);
          c.closing = true;
          return;
        }
        if (c.header.body_size() == 0) {
          dispatch(c, c.header, {}, /*retry=*/false);
          continue;
        }
        // Allocation bounded by decode_frame_header: body_size <= kMaxBody.
        c.body.assign(c.header.body_size(), 0);
        c.body_got = 0;
        c.in_body = true;
      } else {
        const ssize_t n =
            ::read(c.fd, c.body.data() + c.body_got, c.body.size() - c.body_got);
        if (n == 0) {
          close_conn(c.fd);
          return;
        }
        if (n < 0) return;
        c.body_got += static_cast<size_t>(n);
        tcp_bytes_in.fetch_add(static_cast<uint64_t>(n));
        if (c.body_got < c.body.size()) continue;
        c.in_body = false;
        dispatch(c, c.header, std::move(c.body), /*retry=*/false);
      }
    }
  }

  /// Gather every queued segment (bounded by kMaxIov) into one sendmsg
  /// (counted in writev_calls): header and strip payload leave from their
  /// own buffers, and several queued frames batch into a single syscall.
  /// `out_off` tracks how far into the FRONT outbound the wire has advanced;
  /// partial writes resume mid-segment on the next pass.
  static constexpr int kMaxIov = 16;

  bool handle_write(Conn& c) {
    while (!c.outbox.empty()) {
      iovec iov[kMaxIov];
      int n_iov = 0;
      size_t skip = c.out_off;
      for (auto it = c.outbox.begin(); it != c.outbox.end() && n_iov < kMaxIov; ++it) {
        for (std::vector<uint8_t>* seg : {&it->head, &it->body}) {
          if (seg->empty()) continue;
          if (skip >= seg->size()) {
            skip -= seg->size();
            continue;
          }
          if (n_iov == kMaxIov) break;
          iov[n_iov].iov_base = seg->data() + skip;
          iov[n_iov].iov_len = seg->size() - skip;
          skip = 0;
          ++n_iov;
        }
      }
      // sendmsg rather than writev for MSG_NOSIGNAL: a peer that closed
      // is a closed connection here, not a SIGPIPE for the process.
      msghdr msg{};
      msg.msg_iov = iov;
      msg.msg_iovlen = static_cast<size_t>(n_iov);
      const ssize_t n = ::sendmsg(c.fd, &msg, MSG_NOSIGNAL);
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR)) return true;
      if (n <= 0) {
        close_conn(c.fd);
        return false;
      }
      writev_calls.fetch_add(1);
      writev_segments.fetch_add(static_cast<size_t>(n_iov));
      tcp_bytes_out.fetch_add(static_cast<uint64_t>(n));
      c.out_off += static_cast<size_t>(n);
      while (!c.outbox.empty() && c.out_off >= c.outbox.front().size()) {
        c.out_off -= c.outbox.front().size();
        c.outbox.pop_front();
      }
    }
    return true;
  }

  // ---- request dispatch ----------------------------------------------------

  ServiceHandle* handle_for(const std::string& spec, std::string& err) {
    auto it = handles.find(spec);
    if (it == handles.end()) {
      try {
        it = handles.emplace(spec, service.acquire(spec)).first;
      } catch (const std::exception& e) {
        err = e.what();
        return nullptr;
      }
    }
    return &it->second;
  }

  void dispatch(Conn& c, const FrameHeader& h, std::vector<uint8_t> body, bool retry) {
    FrameView view;
    if (const FrameError err = bind_frame_body(h, body.data(), body.size(), view);
        err != FrameError::Ok) {
      queue_frame(c, error_frame(h.request_id, frame_error_name(err)), true);
      return;
    }
    if (h.type == FrameType::Ping) {
      requests.fetch_add(1);
      FrameHeader pong;
      pong.type = FrameType::Pong;
      pong.request_id = h.request_id;
      queue_frame(c, build_frame(pong, {}, nullptr), false);
      return;
    }
    if (h.type != FrameType::EncodeRequest && h.type != FrameType::ReconstructRequest) {
      queue_frame(c, error_frame(h.request_id, "unexpected frame type"), true);
      return;
    }

    std::string err;
    ServiceHandle* handle = handle_for(std::string(view.spec), err);
    if (!handle) {
      queue_frame(c, error_frame(h.request_id, "bad spec: " + err), true);
      return;
    }
    const Codec& codec = handle->codec();
    const uint32_t k = codec.data_fragments();
    const uint32_t m = codec.parity_fragments();
    if (h.frag_len == 0 || h.frag_len % codec.fragment_multiple() != 0) {
      queue_frame(c, error_frame(h.request_id, "frag_len violates codec fragment_multiple"),
                  true);
      return;
    }
    if ((h.present_bitmap | h.erased_bitmap) & ~low_bits(k + m)) {
      queue_frame(c, error_frame(h.request_id, "fragment id out of range for spec"), true);
      return;
    }

    // Global backpressure: the pool shard's queue is full — park the parsed
    // request (reads pause via can_read) and retry it every pass.
    if (handle->queue_depth() >= opt.max_queue_depth) {
      if (!retry) backpressure_stalls.fetch_add(1);
      c.deferred = Deferred{h, std::move(body)};
      return;
    }

    auto req = std::make_unique<Req>();
    req->conn_id = c.id;
    req->body = std::move(body);  // vector move keeps storage: spans stay valid
    req->handle = handle;
    req->rh.type = FrameType::Response;
    req->rh.request_id = h.request_id;
    req->rh.k = k;
    req->rh.m = m;
    req->rh.frag_len = h.frag_len;
    for (const auto& p : view.payloads) req->in_ptrs.push_back(p.data());

    if (h.type == FrameType::EncodeRequest) {
      if (h.payload_count != k || h.present_bitmap != low_bits(k)) {
        queue_frame(c, error_frame(h.request_id, "encode expects exactly the k data fragments"),
                    true);
        return;
      }
      req->rh.present_bitmap = low_bits(m) << k;
      req->rh.payload_count = static_cast<uint16_t>(m);
    } else {
      if (view.erased_ids.empty()) {
        queue_frame(c, error_frame(h.request_id, "reconstruct request names no erased ids"),
                    true);
        return;
      }
      req->rh.present_bitmap = h.erased_bitmap;
      req->rh.payload_count = static_cast<uint16_t>(view.erased_ids.size());
    }
    req->resp_body.resize(req->rh.body_size());
    for (uint16_t i = 0; i < req->rh.payload_count; ++i)
      req->out_ptrs.push_back(req->resp_body.data() + static_cast<size_t>(i) * h.frag_len);
    // Plan-less rebuild: the plan lookup is memoized inside the job and an
    // unrecoverable pattern surfaces via the future as an Error frame.
    runtime::TaskFuture fut =
        h.type == FrameType::EncodeRequest
            ? handle->encode(req->in_ptrs.data(), req->out_ptrs.data(), h.frag_len)
            : handle->rebuild(view.present_ids, req->in_ptrs.data(), view.erased_ids,
                              req->out_ptrs.data(), h.frag_len);

    requests.fetch_add(1);
    ++c.inflight;
    pass_jobs.push_back(Pending{std::move(fut), std::move(req), nullptr});
  }

  // ---- UDP path ------------------------------------------------------------

  void handle_udp() {
    uint8_t buf[wire::kMaxDatagram];
    for (;;) {
      sockaddr_in from{};
      socklen_t from_len = sizeof(from);
      const ssize_t n = ::recvfrom(udp_fd, buf, sizeof(buf), 0,
                                   reinterpret_cast<sockaddr*>(&from), &from_len);
      if (n <= 0) return;  // EAGAIN
      const auto key = std::make_pair(ntohl(from.sin_addr.s_addr), ntohs(from.sin_port));
      auto done = assemblers[key].feed(buf, static_cast<size_t>(n));
      if (done) handle_group(std::move(*done), from);
    }
  }

  void send_ack(const sockaddr_in& to, const GroupAck& ack, uint32_t k, uint32_t m) {
    const std::vector<uint8_t> packet = build_ack_packet(ack, k, m);
    (void)::sendto(udp_fd, packet.data(), packet.size(), 0,
                   reinterpret_cast<const sockaddr*>(&to), sizeof(to));
  }

  void handle_group(StripeGroup&& group, const sockaddr_in& from) {
    udp_groups.fetch_add(1);
    auto job = std::make_unique<UdpJob>();
    job->g = std::move(group);
    job->to = from;
    const StripeGroup& g = job->g;
    GroupAck& ack = job->ack;
    ack.group = g.group;
    ack.strips_received = g.strips_received;

    std::string err;
    ServiceHandle* handle = g.spec.empty() ? nullptr : handle_for(g.spec, err);
    if (!handle) {
      ack.status = g.strips_received == 0 ? GroupAck::kUnrecoverable : GroupAck::kError;
      if (ack.status == GroupAck::kUnrecoverable) udp_unrecoverable.fetch_add(1);
      send_ack(from, ack, g.k, g.m);
      return;
    }
    const Codec& codec = handle->codec();
    if (g.frag_len == 0 || codec.data_fragments() != g.k ||
        codec.parity_fragments() != g.m || g.frag_len % codec.fragment_multiple() != 0) {
      ack.status = g.strips_received == 0 ? GroupAck::kUnrecoverable : GroupAck::kError;
      if (ack.status == GroupAck::kUnrecoverable) udp_unrecoverable.fetch_add(1);
      send_ack(from, ack, g.k, g.m);
      return;
    }

    const std::vector<uint32_t> missing = g.missing_data();
    if (missing.empty()) {
      ack.status = GroupAck::kComplete;
      send_ack(from, ack, g.k, g.m);
      return;
    }

    const std::vector<uint32_t> available = g.present_ids();
    std::shared_ptr<const ReconstructPlan> plan;
    try {
      plan = handle->plan_reconstruct(available, missing);
    } catch (const std::exception&) {
      ack.status = GroupAck::kUnrecoverable;
      udp_unrecoverable.fetch_add(1);
      send_ack(from, ack, g.k, g.m);
      return;
    }

    udp_degraded.fetch_add(1);
    ack.strips_reconstructed = static_cast<uint32_t>(missing.size());
    ack.status = GroupAck::kComplete;
    job->handle = handle;
    for (uint32_t id : available) job->in_ptrs.push_back(job->g.slot(id));
    for (uint32_t id : missing) job->out_ptrs.push_back(job->g.slot(id));
    runtime::TaskFuture fut = handle->reconstruct(plan, job->in_ptrs.data(),
                                                  job->out_ptrs.data(), g.frag_len);
    pass_jobs.push_back(Pending{std::move(fut), nullptr, std::move(job)});
  }

  void finish_udp(UdpJob& job, bool ok) {
    const StripeGroup& g = job.g;
    if (!ok) {
      job.ack.status = GroupAck::kError;
      job.ack.strips_reconstructed = 0;
    } else {
      job.handle->note_net_request(
          static_cast<uint64_t>(g.strips_received) * g.frag_len,
          static_cast<uint64_t>(job.ack.strips_reconstructed) * g.frag_len);
    }
    send_ack(job.to, job.ack, g.k, g.m);
  }
};

// ---- public surface --------------------------------------------------------

NetServer::NetServer(CodecService& service, ServerOptions opt)
    : impl_(std::make_unique<Impl>(service, std::move(opt))) {}

NetServer::~NetServer() = default;

void NetServer::start() { impl_->start(); }
void NetServer::stop() { impl_->stop(); }
uint16_t NetServer::tcp_port() const { return impl_->bound_tcp_port; }
uint16_t NetServer::udp_port() const { return impl_->bound_udp_port; }

NetServerStats NetServer::stats() const {
  NetServerStats s;
  s.connections_accepted = impl_->connections_accepted.load();
  s.connections_open = impl_->open_conns.load();
  s.requests = impl_->requests.load();
  s.responses = impl_->responses.load();
  s.errors = impl_->errors.load();
  s.backpressure_stalls = impl_->backpressure_stalls.load();
  s.tcp_bytes_in = impl_->tcp_bytes_in.load();
  s.tcp_bytes_out = impl_->tcp_bytes_out.load();
  s.writev_calls = impl_->writev_calls.load();
  s.writev_segments = impl_->writev_segments.load();
  s.gather_bytes_saved = impl_->gather_bytes_saved.load();
  s.udp_groups = impl_->udp_groups.load();
  s.udp_degraded_reads = impl_->udp_degraded.load();
  s.udp_unrecoverable = impl_->udp_unrecoverable.load();
  return s;
}

}  // namespace xorec::net
