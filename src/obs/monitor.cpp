#include "obs/monitor.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstring>
#include <stdexcept>
#include <string_view>
#include <thread>
#include <unordered_map>
#include <vector>

namespace xorec::obs {

namespace {

void set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
}

// 4xx responses are complete static literals: a hostile request costs the
// fixed read buffer and a pointer to one of these — no allocation.
constexpr std::string_view kBadRequest =
    "HTTP/1.0 400 Bad Request\r\n"
    "Content-Type: text/plain; charset=utf-8\r\n"
    "Content-Length: 12\r\n"
    "Connection: close\r\n"
    "\r\n"
    "bad request\n";
constexpr std::string_view kNotFound =
    "HTTP/1.0 404 Not Found\r\n"
    "Content-Type: text/plain; charset=utf-8\r\n"
    "Content-Length: 37\r\n"
    "Connection: close\r\n"
    "\r\n"
    "not found; try /metrics, /stats.json\n";
constexpr std::string_view kMethodNotAllowed =
    "HTTP/1.0 405 Method Not Allowed\r\n"
    "Content-Type: text/plain; charset=utf-8\r\n"
    "Allow: GET\r\n"
    "Content-Length: 9\r\n"
    "Connection: close\r\n"
    "\r\n"
    "GET only\n";
constexpr std::string_view kHeadersTooLarge =
    "HTTP/1.0 431 Request Header Fields Too Large\r\n"
    "Content-Type: text/plain; charset=utf-8\r\n"
    "Content-Length: 18\r\n"
    "Connection: close\r\n"
    "\r\n"
    "request too large\n";

std::string ok_response(std::string_view content_type, std::string body) {
  std::string out;
  out.reserve(body.size() + 128);
  out += "HTTP/1.0 200 OK\r\nContent-Type: ";
  out += content_type;
  out += "\r\nContent-Length: ";
  out += std::to_string(body.size());
  out += "\r\nConnection: close\r\n\r\n";
  out += body;
  return out;
}

}  // namespace

struct MonitorServer::Impl {
  /// Request size never drives allocation: reads land in this fixed buffer
  /// and anything that overflows it un-terminated is a 431.
  static constexpr size_t kRequestBufSize = 1024;

  struct Conn {
    int fd = -1;
    char buf[kRequestBufSize];
    size_t got = 0;
    bool responding = false;   // header block complete, response queued
    std::string owned_out;     // 200 body (empty for static 4xx)
    std::string_view out;      // what's left to write (views owned_out or a literal)
  };

  const MetricsRegistry& registry;
  MonitorOptions opt;
  int listen_fd = -1;
  int wake_r = -1, wake_w = -1;
  uint16_t bound_port = 0;

  std::thread loop_thread;
  std::atomic<bool> running{false};
  bool started = false;

  std::unordered_map<int, std::unique_ptr<Conn>> conns;  // loop-thread only

  std::atomic<size_t> connections_accepted{0}, requests{0}, bad_requests{0};

  Impl(const MetricsRegistry& reg, MonitorOptions o) : registry(reg), opt(std::move(o)) {
    listen_fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (listen_fd < 0) throw std::runtime_error("MonitorServer: socket() failed");
    const int one = 1;
    (void)::setsockopt(listen_fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    sockaddr_in sa{};
    sa.sin_family = AF_INET;
    if (::inet_pton(AF_INET, opt.host.c_str(), &sa.sin_addr) != 1)
      sa.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    sa.sin_port = htons(opt.port);
    if (::bind(listen_fd, reinterpret_cast<sockaddr*>(&sa), sizeof(sa)) != 0 ||
        ::listen(listen_fd, 16) != 0) {
      ::close(listen_fd);
      throw std::runtime_error("MonitorServer: bind/listen failed");
    }
    set_nonblocking(listen_fd);
    socklen_t len = sizeof(sa);
    ::getsockname(listen_fd, reinterpret_cast<sockaddr*>(&sa), &len);
    bound_port = ntohs(sa.sin_port);

    int pipe_fds[2];
    if (::pipe(pipe_fds) != 0) {
      ::close(listen_fd);
      throw std::runtime_error("MonitorServer: pipe() failed");
    }
    wake_r = pipe_fds[0];
    wake_w = pipe_fds[1];
    set_nonblocking(wake_r);
    set_nonblocking(wake_w);
  }

  ~Impl() {
    stop();
    for (int fd : {listen_fd, wake_r, wake_w})
      if (fd >= 0) ::close(fd);
  }

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
    (void)!::write(wake_w, &b, 1);
    if (loop_thread.joinable()) loop_thread.join();
    for (auto& [fd, conn] : conns) ::close(fd);
    conns.clear();
    started = false;
  }

  void loop_main() {
    std::vector<pollfd> fds;
    std::vector<int> conn_fds;
    while (running.load()) {
      fds.clear();
      conn_fds.clear();
      fds.push_back({wake_r, POLLIN, 0});
      fds.push_back({listen_fd,
                     static_cast<short>(conns.size() < opt.max_connections ? POLLIN : 0),
                     0});
      for (auto& [fd, conn] : conns) {
        fds.push_back({fd, static_cast<short>(conn->responding ? POLLOUT : POLLIN), 0});
        conn_fds.push_back(fd);
      }
      ::poll(fds.data(), fds.size(), 100);
      if (!running.load()) break;

      if (fds[0].revents & POLLIN) {
        uint8_t buf[64];
        while (::read(wake_r, buf, sizeof(buf)) > 0) {
        }
      }
      if (fds[1].revents & POLLIN) handle_accept();
      for (size_t i = 0; i < conn_fds.size(); ++i) {
        const pollfd& p = fds[2 + i];
        auto it = conns.find(conn_fds[i]);
        if (it == conns.end()) continue;
        Conn* c = it->second.get();
        if (p.revents & (POLLERR | POLLHUP)) {
          close_conn(c->fd);
          continue;
        }
        if (p.revents & POLLOUT) {
          if (!handle_write(*c)) continue;
        }
        if (p.revents & POLLIN) handle_read(*c);
      }
    }
  }

  void handle_accept() {
    for (;;) {
      const int fd = ::accept(listen_fd, nullptr, nullptr);
      if (fd < 0) return;
      if (conns.size() >= opt.max_connections) {
        ::close(fd);
        return;
      }
      set_nonblocking(fd);
      const int one = 1;
      (void)::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
      auto conn = std::make_unique<Conn>();
      conn->fd = fd;
      conns.emplace(fd, std::move(conn));
      connections_accepted.fetch_add(1);
    }
  }

  void close_conn(int fd) {
    auto it = conns.find(fd);
    if (it == conns.end()) return;
    ::close(fd);
    conns.erase(it);
  }

  void handle_read(Conn& c) {
    for (;;) {
      if (c.got == kRequestBufSize) {
        respond_static(c, kHeadersTooLarge);
        return;
      }
      const ssize_t n = ::read(c.fd, c.buf + c.got, kRequestBufSize - c.got);
      if (n == 0) {
        close_conn(c.fd);
        return;
      }
      if (n < 0) return;  // EAGAIN
      c.got += static_cast<size_t>(n);
      const std::string_view sofar(c.buf, c.got);
      // HTTP/1.0, no request bodies: the header block's blank line ends the
      // request. Accept bare-LF termination from sloppy clients.
      if (sofar.find("\r\n\r\n") != std::string_view::npos ||
          sofar.find("\n\n") != std::string_view::npos) {
        respond(c, sofar);
        return;
      }
      // A stray NUL or control byte before the line end can't begin a valid
      // request line — reject without waiting for a terminator.
      const size_t line_end = sofar.find_first_of("\r\n");
      const std::string_view line = sofar.substr(0, line_end);
      for (char ch : line) {
        if (static_cast<unsigned char>(ch) < 0x20 || ch == 0x7f) {
          respond_static(c, kBadRequest);
          return;
        }
      }
    }
  }

  void respond(Conn& c, std::string_view request) {
    // Request line: METHOD SP PATH SP HTTP/x.y
    const size_t line_end = request.find_first_of("\r\n");
    const std::string_view line = request.substr(0, line_end);
    const size_t sp1 = line.find(' ');
    if (sp1 == std::string_view::npos || sp1 == 0) {
      respond_static(c, kBadRequest);
      return;
    }
    const size_t sp2 = line.find(' ', sp1 + 1);
    if (sp2 == std::string_view::npos || sp2 == sp1 + 1 ||
        line.substr(sp2 + 1).rfind("HTTP/", 0) != 0) {
      respond_static(c, kBadRequest);
      return;
    }
    const std::string_view method = line.substr(0, sp1);
    std::string_view path = line.substr(sp1 + 1, sp2 - sp1 - 1);
    if (path.empty() || path[0] != '/') {
      respond_static(c, kBadRequest);
      return;
    }
    if (method != "GET") {
      respond_static(c, kMethodNotAllowed);
      return;
    }
    if (const size_t q = path.find('?'); q != std::string_view::npos)
      path = path.substr(0, q);

    if (path == "/metrics") {
      requests.fetch_add(1);
      c.owned_out = ok_response("text/plain; version=0.0.4; charset=utf-8",
                                render_prometheus(registry.collect()));
    } else if (path == "/stats.json") {
      requests.fetch_add(1);
      c.owned_out = ok_response("application/json", render_stats_json(registry.collect()));
    } else {
      respond_static(c, kNotFound);
      return;
    }
    c.out = c.owned_out;
    c.responding = true;
    handle_write(c);
  }

  void respond_static(Conn& c, std::string_view response) {
    bad_requests.fetch_add(1);
    c.out = response;
    c.responding = true;
    handle_write(c);
  }

  /// Returns false when the connection was closed.
  bool handle_write(Conn& c) {
    while (!c.out.empty()) {
      // MSG_NOSIGNAL: a scraper that hung up must not SIGPIPE the process.
      const ssize_t n = ::send(c.fd, c.out.data(), c.out.size(), MSG_NOSIGNAL);
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR))
        return true;  // poll will call back
      if (n <= 0) break;
      c.out.remove_prefix(static_cast<size_t>(n));
    }
    close_conn(c.fd);  // HTTP/1.0: one response, then close
    return false;
  }
};

MonitorServer::MonitorServer(const MetricsRegistry& registry, MonitorOptions opt)
    : impl_(std::make_unique<Impl>(registry, std::move(opt))) {}

MonitorServer::~MonitorServer() = default;

void MonitorServer::start() { impl_->start(); }
void MonitorServer::stop() { impl_->stop(); }
uint16_t MonitorServer::port() const { return impl_->bound_port; }

MonitorStats MonitorServer::stats() const {
  MonitorStats s;
  s.connections_accepted = impl_->connections_accepted.load();
  s.requests = impl_->requests.load();
  s.bad_requests = impl_->bad_requests.load();
  return s;
}

}  // namespace xorec::obs
