#include "net/client.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <stdexcept>

namespace xorec::net {

namespace {

/// Send without blocking past `timeout_ms` per wait: MSG_DONTWAIT sends what
/// the socket buffer takes and poll waits for room. MSG_NOSIGNAL turns a
/// peer that closed into EPIPE (an exception) instead of a process-killing
/// SIGPIPE.
void write_all(int fd, const uint8_t* data, size_t len, int timeout_ms) {
  size_t off = 0;
  while (off < len) {
    const ssize_t n = ::send(fd, data + off, len - off, MSG_NOSIGNAL | MSG_DONTWAIT);
    if (n > 0) {
      off += static_cast<size_t>(n);
      continue;
    }
    if (n < 0 && errno != EAGAIN && errno != EWOULDBLOCK && errno != EINTR)
      throw std::runtime_error("net::Client: connection write failed");
    pollfd pfd{fd, POLLOUT, 0};
    if (::poll(&pfd, 1, timeout_ms) <= 0)
      throw std::runtime_error("net::Client: request write timeout");
  }
}

void read_all(int fd, uint8_t* data, size_t len, int timeout_ms) {
  size_t off = 0;
  while (off < len) {
    pollfd pfd{fd, POLLIN, 0};
    const int ready = ::poll(&pfd, 1, timeout_ms);
    if (ready <= 0) throw std::runtime_error("net::Client: response timeout");
    const ssize_t n = ::read(fd, data + off, len - off);
    if (n <= 0) throw std::runtime_error("net::Client: connection closed by server");
    off += static_cast<size_t>(n);
  }
}

}  // namespace

Client::Client(const std::string& host, uint16_t port, int timeout_ms)
    : timeout_ms_(timeout_ms) {
  fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd_ < 0) throw std::runtime_error("net::Client: socket() failed");
  sockaddr_in sa{};
  sa.sin_family = AF_INET;
  sa.sin_port = htons(port);
  if (inet_pton(AF_INET, host.c_str(), &sa.sin_addr) != 1) {
    ::close(fd_);
    throw std::runtime_error("net::Client: not a dotted-quad IPv4 host: " + host);
  }
  if (::connect(fd_, reinterpret_cast<sockaddr*>(&sa), sizeof(sa)) != 0) {
    ::close(fd_);
    throw std::runtime_error("net::Client: connect to " + host + " failed");
  }
  const int one = 1;
  (void)::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

Client::~Client() {
  if (fd_ >= 0) ::close(fd_);
}

FrameView Client::roundtrip(const std::vector<uint8_t>& frame,
                            std::vector<uint8_t>& body) {
  write_all(fd_, frame.data(), frame.size(), timeout_ms_);

  uint8_t header_buf[wire::kFrameHeaderSize];
  read_all(fd_, header_buf, sizeof(header_buf), timeout_ms_);
  FrameHeader header;
  if (const FrameError err = decode_frame_header(header_buf, sizeof(header_buf), header);
      err != FrameError::Ok)
    throw std::runtime_error(std::string("net::Client: bad response header: ") +
                             frame_error_name(err));
  body.assign(header.body_size(), 0);
  read_all(fd_, body.data(), body.size(), timeout_ms_);
  FrameView view;
  if (const FrameError err = bind_frame_body(header, body.data(), body.size(), view);
      err != FrameError::Ok)
    throw std::runtime_error(std::string("net::Client: bad response body: ") +
                             frame_error_name(err));
  if (view.header.type == FrameType::Error)
    throw std::runtime_error("net::Client: server error: " + std::string(view.spec));
  return view;
}

void Client::encode(const std::string& spec, const uint8_t* const* data, uint32_t k,
                    uint8_t* const* parity, uint32_t m, size_t frag_len) {
  FrameHeader h;
  h.type = FrameType::EncodeRequest;
  h.request_id = ++next_request_id_;
  h.k = k;
  h.frag_len = static_cast<uint32_t>(frag_len);
  h.present_bitmap = k >= 64 ? ~uint64_t{0} : (uint64_t{1} << k) - 1;
  h.payload_count = static_cast<uint16_t>(k);
  const std::vector<uint8_t> frame = build_frame(h, spec, data);

  std::vector<uint8_t> body;
  const FrameView view = roundtrip(frame, body);
  if (view.header.request_id != h.request_id)
    throw std::runtime_error("net::Client: response id mismatch");
  if (view.payloads.size() != m)
    throw std::runtime_error("net::Client: parity count disagrees with spec geometry");
  for (uint32_t i = 0; i < m; ++i)
    std::memcpy(parity[i], view.payloads[i].data(), frag_len);
}

void Client::reconstruct(const std::string& spec, const std::vector<uint32_t>& available,
                         const uint8_t* const* available_frags,
                         const std::vector<uint32_t>& erased, uint8_t* const* out,
                         size_t frag_len) {
  FrameHeader h;
  h.type = FrameType::ReconstructRequest;
  h.request_id = ++next_request_id_;
  h.frag_len = static_cast<uint32_t>(frag_len);
  for (uint32_t id : available) {
    if (id >= 64) throw std::invalid_argument("net::Client: fragment id >= 64");
    h.present_bitmap |= uint64_t{1} << id;
  }
  for (uint32_t id : erased) {
    if (id >= 64) throw std::invalid_argument("net::Client: fragment id >= 64");
    h.erased_bitmap |= uint64_t{1} << id;
  }
  h.payload_count = static_cast<uint16_t>(available.size());
  // build_frame gathers payloads in present-bitmap (ascending id) order.
  std::vector<const uint8_t*> ordered(available.size());
  {
    std::vector<std::pair<uint32_t, const uint8_t*>> by_id;
    by_id.reserve(available.size());
    for (size_t i = 0; i < available.size(); ++i)
      by_id.emplace_back(available[i], available_frags[i]);
    std::sort(by_id.begin(), by_id.end());
    for (size_t i = 0; i < by_id.size(); ++i) ordered[i] = by_id[i].second;
  }
  const std::vector<uint8_t> frame = build_frame(h, spec, ordered.data());

  std::vector<uint8_t> body;
  const FrameView view = roundtrip(frame, body);
  if (view.header.request_id != h.request_id)
    throw std::runtime_error("net::Client: response id mismatch");
  if (view.payloads.size() != erased.size())
    throw std::runtime_error("net::Client: rebuilt fragment count mismatch");
  // Response payloads are in ascending erased-id order; map back to the
  // caller's `erased` order.
  std::vector<uint32_t> sorted(erased);
  std::sort(sorted.begin(), sorted.end());
  for (size_t i = 0; i < erased.size(); ++i) {
    const size_t pos =
        static_cast<size_t>(std::lower_bound(sorted.begin(), sorted.end(), erased[i]) -
                            sorted.begin());
    std::memcpy(out[i], view.payloads[pos].data(), frag_len);
  }
}

void Client::ping() {
  FrameHeader h;
  h.type = FrameType::Ping;
  h.request_id = ++next_request_id_;
  std::vector<uint8_t> body;
  const FrameView view = roundtrip(build_frame(h, {}, nullptr), body);
  if (view.header.type != FrameType::Pong || view.header.request_id != h.request_id)
    throw std::runtime_error("net::Client: unexpected ping response");
}

}  // namespace xorec::net
