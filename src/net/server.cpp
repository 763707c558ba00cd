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
#include <condition_variable>
#include <cstring>
#include <deque>
#include <functional>
#include <map>
#include <mutex>
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
    size_t inflight = 0;       // submitted-but-unanswered requests
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
    std::vector<uint32_t> avail_ids, erased_ids;
    FrameHeader rh;  // response header; body_crc finalized at completion
    std::vector<uint8_t> resp_body;
    std::optional<ServiceHandle> handle;
  };

  /// One in-flight UDP degraded read: the group arena is both the survivor
  /// source and the rebuild destination.
  struct UdpJob {
    std::shared_ptr<StripeGroup> g;
    std::vector<const uint8_t*> in_ptrs;
    std::vector<uint8_t*> out_ptrs;
    sockaddr_in to{};
    GroupAck ack;
    std::optional<ServiceHandle> handle;
  };

  struct Completion {
    runtime::TaskFuture fut;
    std::function<void(bool ok, const std::string& err)> done;
  };

  struct Finished {
    uint64_t conn_id = 0;
    std::vector<uint8_t> head;
    std::vector<uint8_t> body;  // empty for error/pong frames
    bool is_error = false;
  };

  // ---- members -------------------------------------------------------------

  CodecService& service;
  ServerOptions opt;
  int tcp_fd = -1, udp_fd = -1;
  int wake_r = -1, wake_w = -1;
  uint16_t bound_tcp_port = 0, bound_udp_port = 0;

  std::thread loop_thread, completion_thread;
  std::atomic<bool> running{false};
  bool started = false;

  // loop-thread-only state
  std::map<std::string, ServiceHandle> handles;
  uint64_t next_conn_id = 1;
  std::unordered_map<int, std::unique_ptr<Conn>> conns;      // fd -> conn
  std::unordered_map<uint64_t, Conn*> by_id;
  std::map<std::pair<uint32_t, uint16_t>, GroupAssembler> assemblers;  // per peer

  // loop -> completion thread: futures awaited strictly FIFO (head-of-line
  // waits are bounded by the queue-depth cap; an unstarted head job runs on
  // the completion thread)
  std::mutex cmu;
  std::condition_variable ccv;
  std::deque<Completion> completions;
  bool cstop = false;

  // completion thread -> loop: finalized TCP responses
  std::mutex fmu;
  std::deque<Finished> finished;

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
    {
      // stop() latches cstop so the completion thread drains and exits; a
      // restarted server needs the latch cleared or its new completion
      // thread exits immediately and responses are never delivered.
      std::lock_guard<std::mutex> lk(cmu);
      cstop = false;
    }
    running.store(true);
    loop_thread = std::thread([this] { loop_main(); });
    completion_thread = std::thread([this] { completion_main(); });
  }

  void stop() {
    if (!started) return;
    running.store(false);
    wake();
    if (loop_thread.joinable()) loop_thread.join();
    {
      std::lock_guard<std::mutex> lk(cmu);
      cstop = true;
    }
    ccv.notify_all();
    // The completion thread drains every submitted future before exiting,
    // so request/response buffers stay alive until their jobs finish.
    if (completion_thread.joinable()) completion_thread.join();
    for (auto& [fd, conn] : conns) ::close(fd);
    conns.clear();
    by_id.clear();
    open_conns.store(0);
    started = false;
  }

  void wake() {
    const uint8_t b = 1;
    (void)!::write(wake_w, &b, 1);  // EAGAIN = already pending, fine
  }

  // ---- completion thread ---------------------------------------------------

  void push_completion(runtime::TaskFuture fut,
                       std::function<void(bool, const std::string&)> done) {
    {
      std::lock_guard<std::mutex> lk(cmu);
      completions.push_back(Completion{std::move(fut), std::move(done)});
    }
    ccv.notify_one();
  }

  void completion_main() {
    for (;;) {
      Completion c;
      {
        std::unique_lock<std::mutex> lk(cmu);
        ccv.wait(lk, [this] { return cstop || !completions.empty(); });
        if (completions.empty()) return;  // cstop and drained
        c = std::move(completions.front());
        completions.pop_front();
      }
      bool ok = true;
      std::string err;
      try {
        if (c.fut.valid()) c.fut.get();
      } catch (const std::exception& e) {
        ok = false;
        err = e.what();
      }
      c.done(ok, err);
    }
  }

  void push_finished(uint64_t conn_id, std::vector<uint8_t> head, std::vector<uint8_t> body,
                     bool is_error) {
    {
      std::lock_guard<std::mutex> lk(fmu);
      finished.push_back(Finished{conn_id, std::move(head), std::move(body), is_error});
    }
    wake();
  }

  // ---- event loop ----------------------------------------------------------

  bool can_read(const Conn& c) const {
    return !c.closing && !c.deferred && c.inflight < opt.max_inflight_per_conn;
  }

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
        if (!conn->outbox.empty()) ev |= POLLOUT;
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
      drain_finished();
      if (fds[1].revents & POLLIN) handle_accept();
      if (fds[2].revents & POLLIN) handle_udp();
      for (size_t i = 0; i < conn_fds.size(); ++i) {
        const pollfd& p = fds[3 + i];
        auto it = conns.find(conn_fds[i]);
        if (it == conns.end()) continue;
        Conn* c = it->second.get();
        if (p.revents & (POLLERR | POLLHUP)) {
          close_conn(c->fd);
          continue;
        }
        if (p.revents & POLLOUT) {
          if (!handle_write(*c)) continue;  // conn closed
        }
        if (p.revents & POLLIN) {
          if (!handle_read(*c)) continue;
        }
      }
      retry_deferred();
      flush_closing();
    }
  }

  void drain_finished() {
    std::deque<Finished> batch;
    {
      std::lock_guard<std::mutex> lk(fmu);
      batch.swap(finished);
    }
    for (Finished& f : batch) {
      auto it = by_id.find(f.conn_id);
      if (it == by_id.end()) continue;  // connection already gone
      Conn& c = *it->second;
      if (c.inflight) --c.inflight;
      queue_segments(c, std::move(f.head), std::move(f.body), f.is_error);
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

  void flush_closing() {
    std::vector<int> doomed;
    for (auto& [fd, conn] : conns)
      if (conn->closing && conn->outbox.empty() && conn->inflight == 0)
        doomed.push_back(fd);
    for (int fd : doomed) close_conn(fd);
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

  /// Returns false when the connection was closed.
  bool handle_read(Conn& c) {
    while (can_read(c)) {
      if (!c.in_body) {
        const ssize_t n = ::read(c.fd, c.header_buf + c.header_got,
                                 wire::kFrameHeaderSize - c.header_got);
        if (n == 0) {
          close_conn(c.fd);
          return false;
        }
        if (n < 0) return true;  // EAGAIN
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
          return true;
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
          return false;
        }
        if (n < 0) return true;
        c.body_got += static_cast<size_t>(n);
        tcp_bytes_in.fetch_add(static_cast<uint64_t>(n));
        if (c.body_got < c.body.size()) continue;
        c.in_body = false;
        dispatch(c, c.header, std::move(c.body), /*retry=*/false);
      }
    }
    return true;
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
    // request (reads pause via can_read) and retry when the loop wakes.
    if (handle->session().pending() >= opt.max_queue_depth) {
      if (!retry) backpressure_stalls.fetch_add(1);
      c.deferred = Deferred{h, std::move(body)};
      return;
    }

    auto req = std::make_shared<Req>();
    req->conn_id = c.id;
    req->body = std::move(body);  // vector move keeps storage: spans stay valid
    req->handle = *handle;
    runtime::TaskFuture fut;

    if (h.type == FrameType::EncodeRequest) {
      if (h.payload_count != k || h.present_bitmap != low_bits(k)) {
        queue_frame(c, error_frame(h.request_id, "encode expects exactly the k data fragments"),
                    true);
        return;
      }
      req->rh.type = FrameType::Response;
      req->rh.request_id = h.request_id;
      req->rh.k = k;
      req->rh.m = m;
      req->rh.frag_len = h.frag_len;
      req->rh.present_bitmap = low_bits(m) << k;
      req->rh.payload_count = static_cast<uint16_t>(m);
      req->resp_body.resize(req->rh.body_size());
      for (const auto& p : view.payloads) req->in_ptrs.push_back(p.data());
      uint8_t* rb = req->resp_body.data();
      for (uint32_t i = 0; i < m; ++i)
        req->out_ptrs.push_back(rb + static_cast<size_t>(i) * h.frag_len);
      fut = handle->encode(req->in_ptrs.data(), req->out_ptrs.data(), h.frag_len);
    } else {
      if (view.erased_ids.empty()) {
        queue_frame(c, error_frame(h.request_id, "reconstruct request names no erased ids"),
                    true);
        return;
      }
      req->avail_ids = view.present_ids;
      req->erased_ids = view.erased_ids;
      req->rh.type = FrameType::Response;
      req->rh.request_id = h.request_id;
      req->rh.k = k;
      req->rh.m = m;
      req->rh.frag_len = h.frag_len;
      req->rh.present_bitmap = h.erased_bitmap;
      req->rh.payload_count = static_cast<uint16_t>(req->erased_ids.size());
      req->resp_body.resize(req->rh.body_size());
      for (const auto& p : view.payloads) req->in_ptrs.push_back(p.data());
      uint8_t* rb = req->resp_body.data();
      for (size_t i = 0; i < req->erased_ids.size(); ++i)
        req->out_ptrs.push_back(rb + i * h.frag_len);
      // Plan-less path: the plan lookup is memoized inside the job and an
      // unrecoverable pattern surfaces via the future as an Error frame.
      fut = handle->rebuild(req->avail_ids, req->in_ptrs.data(), req->erased_ids,
                            req->out_ptrs.data(), h.frag_len);
    }

    requests.fetch_add(1);
    ++c.inflight;
    const uint64_t bytes_in = wire::kFrameHeaderSize + req->body.size();
    push_completion(std::move(fut), [this, req, bytes_in](bool ok, const std::string& emsg) {
      if (ok) {
        // The body stays where the codec wrote it; only the 56-byte header
        // is materialized here. writev joins the two on the wire.
        req->rh.body_crc = crc32(req->resp_body.data(), req->rh.body_size());
        std::vector<uint8_t> head(wire::kFrameHeaderSize);
        encode_frame_header(req->rh, head.data());
        req->handle->note_net_request(bytes_in, head.size() + req->resp_body.size());
        push_finished(req->conn_id, std::move(head), std::move(req->resp_body), false);
      } else {
        push_finished(req->conn_id, error_frame(req->rh.request_id, emsg), {}, true);
      }
    });
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
    // Called from both threads; sendto on one fd is thread-safe.
    const std::vector<uint8_t> packet = build_ack_packet(ack, k, m);
    (void)::sendto(udp_fd, packet.data(), packet.size(), 0,
                   reinterpret_cast<const sockaddr*>(&to), sizeof(to));
  }

  void handle_group(StripeGroup&& group, const sockaddr_in& from) {
    udp_groups.fetch_add(1);
    auto g = std::make_shared<StripeGroup>(std::move(group));
    GroupAck ack;
    ack.group = g->group;
    ack.strips_received = g->strips_received;

    std::string err;
    ServiceHandle* handle =
        g->spec.empty() ? nullptr : handle_for(g->spec, err);
    if (!handle) {
      ack.status = g->strips_received == 0 ? GroupAck::kUnrecoverable : GroupAck::kError;
      if (ack.status == GroupAck::kUnrecoverable) udp_unrecoverable.fetch_add(1);
      send_ack(from, ack, g->k, g->m);
      return;
    }
    const Codec& codec = handle->codec();
    if (g->frag_len == 0 || codec.data_fragments() != g->k ||
        codec.parity_fragments() != g->m || g->frag_len % codec.fragment_multiple() != 0) {
      ack.status = g->strips_received == 0 ? GroupAck::kUnrecoverable : GroupAck::kError;
      if (ack.status == GroupAck::kUnrecoverable) udp_unrecoverable.fetch_add(1);
      send_ack(from, ack, g->k, g->m);
      return;
    }

    const std::vector<uint32_t> missing = g->missing_data();
    if (missing.empty()) {
      ack.status = GroupAck::kComplete;
      send_ack(from, ack, g->k, g->m);
      return;
    }

    const std::vector<uint32_t> available = g->present_ids();
    std::shared_ptr<const ReconstructPlan> plan;
    try {
      plan = handle->plan_reconstruct(available, missing);
    } catch (const std::exception&) {
      ack.status = GroupAck::kUnrecoverable;
      udp_unrecoverable.fetch_add(1);
      send_ack(from, ack, g->k, g->m);
      return;
    }

    udp_degraded.fetch_add(1);
    auto job = std::make_shared<UdpJob>();
    job->g = g;
    job->to = from;
    job->ack = ack;
    job->ack.strips_reconstructed = static_cast<uint32_t>(missing.size());
    job->ack.status = GroupAck::kComplete;
    job->handle = *handle;
    for (uint32_t id : available) job->in_ptrs.push_back(g->slot(id));
    for (uint32_t id : missing) job->out_ptrs.push_back(g->slot(id));
    runtime::TaskFuture fut = handle->reconstruct(plan, job->in_ptrs.data(),
                                                  job->out_ptrs.data(), g->frag_len);
    push_completion(std::move(fut), [this, job](bool ok, const std::string&) {
      GroupAck a = job->ack;
      if (!ok) {
        a.status = GroupAck::kError;
        a.strips_reconstructed = 0;
      } else {
        const StripeGroup& sg = *job->g;
        job->handle->note_net_request(
            static_cast<uint64_t>(sg.strips_received) * sg.frag_len,
            static_cast<uint64_t>(a.strips_reconstructed) * sg.frag_len);
      }
      send_ack(job->to, a, job->g->k, job->g->m);
    });
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
