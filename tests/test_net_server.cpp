// NetServer + net::Client over real loopback TCP (plus the server's shared
// UDP socket): remote encode matches local encode byte for byte, remote
// reconstruct is a wire-served degraded read, malformed and unsatisfiable
// requests come back as clean Error frames on a connection that stays
// usable, the per-pool ServiceStats net counters see the traffic, and a
// client whose peer closed or stopped reading throws instead of dying of
// SIGPIPE or hanging. The server runs on one thread, answers a pipelined
// burst of frames in full, and stops cleanly under traffic.
#include <arpa/inet.h>
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <future>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "api/registry.hpp"
#include "api/service.hpp"
#include "net/client.hpp"
#include "net/datagram.hpp"
#include "net/frame.hpp"
#include "net/server.hpp"

using namespace xorec;
using namespace xorec::net;

namespace {

constexpr uint32_t kK = 6, kM = 4;
constexpr size_t kFragLen = 1024;
const char* kSpec = "rs(6,4)";

std::vector<std::vector<uint8_t>> make_data(uint64_t seed = 0xBEEF) {
  std::vector<std::vector<uint8_t>> data(kK, std::vector<uint8_t>(kFragLen));
  uint64_t x = seed;
  for (auto& frag : data)
    for (auto& b : frag) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      b = static_cast<uint8_t>(x);
    }
  return data;
}

/// Server + started lifetime for one test.
struct ServerFixture {
  CodecService service;
  NetServer server;
  ServerFixture() : server(service, {}) { server.start(); }
  ~ServerFixture() { server.stop(); }
};

/// A 10 MiB rs(10,4) encode: more than the loopback socket buffers hold, so
/// the client's request write cannot complete without the peer reading.
struct BigEncode {
  static constexpr uint32_t k = 10, m = 4;
  static constexpr size_t frag_len = 1u << 20;
  std::vector<std::vector<uint8_t>> data{k, std::vector<uint8_t>(frag_len, 0x5a)};
  std::vector<std::vector<uint8_t>> parity{m, std::vector<uint8_t>(frag_len)};
  std::vector<const uint8_t*> data_ptrs;
  std::vector<uint8_t*> parity_ptrs;
  BigEncode() {
    for (auto& d : data) data_ptrs.push_back(d.data());
    for (auto& p : parity) parity_ptrs.push_back(p.data());
  }
  void run(Client& client) {
    client.encode("rs(10,4)", data_ptrs.data(), k, parity_ptrs.data(), m, frag_len);
  }
};

}  // namespace

TEST(NetServer, PortsAreBoundBeforeStart) {
  CodecService service;
  NetServer server(service, {});
  // Ephemeral ports are resolved at construction — known before serving.
  EXPECT_GT(server.tcp_port(), 0);
  EXPECT_GT(server.udp_port(), 0);
  server.start();
  server.stop();
  server.stop();  // idempotent
}

TEST(NetServer, RestartedServerStillDeliversResponses) {
  // Regression: a restarted server once accepted connections but never
  // delivered encode responses, because stop() left state behind that the
  // next start() did not reset. Ping is answered inline by the event loop,
  // so only a codec request (whose response waits on a service job) can
  // detect this — run it with a timeout so a regressed build fails instead
  // of hanging forever.
  CodecService service;
  NetServer server(service, {});
  server.start();
  server.stop();
  server.start();  // the restart under test

  struct EncodeState {
    std::vector<std::vector<uint8_t>> data = make_data();
    std::vector<const uint8_t*> data_ptrs;
    std::vector<std::vector<uint8_t>> out{kM, std::vector<uint8_t>(kFragLen)};
    std::vector<uint8_t*> out_ptrs;
  };
  auto st = std::make_shared<EncodeState>();
  for (uint32_t i = 0; i < kK; ++i) st->data_ptrs.push_back(st->data[i].data());
  for (uint32_t i = 0; i < kM; ++i) st->out_ptrs.push_back(st->out[i].data());

  auto done = std::make_shared<std::promise<bool>>();
  std::future<bool> fut = done->get_future();
  const uint16_t port = server.tcp_port();
  // Detached + shared state: if the encode wedges (the pre-fix behavior),
  // the thread must not dangle into destroyed stack frames while we report
  // the failure; server.stop() below closes the connection, the client
  // throws, and the thread finishes against its shared copy.
  std::thread([st, done, port] {
    try {
      Client client("127.0.0.1", port);
      client.encode(kSpec, st->data_ptrs.data(), kK, st->out_ptrs.data(), kM, kFragLen);
      done->set_value(true);
    } catch (...) {
      done->set_value(false);
    }
  }).detach();

  if (fut.wait_for(std::chrono::seconds(10)) != std::future_status::ready) {
    ADD_FAILURE() << "encode against a restarted server never completed "
                     "(restarted loop never answers codec jobs?)";
    server.stop();  // closes the connection; the client throws and the thread ends
    (void)fut.wait_for(std::chrono::seconds(10));
    return;
  }
  EXPECT_TRUE(fut.get()) << "encode against a restarted server failed";

  // The restarted server computed real parity, not garbage.
  const auto codec = make_codec(kSpec);
  std::vector<std::vector<uint8_t>> local(kM, std::vector<uint8_t>(kFragLen));
  std::vector<uint8_t*> local_ptrs(kM);
  for (uint32_t i = 0; i < kM; ++i) local_ptrs[i] = local[i].data();
  codec->encode(st->data_ptrs.data(), local_ptrs.data(), kFragLen);
  for (uint32_t i = 0; i < kM; ++i) EXPECT_EQ(st->out[i], local[i]) << "parity " << i;
  server.stop();
}

TEST(NetServer, PingAndRemoteEncodeMatchLocal) {
  ServerFixture fx;
  Client client("127.0.0.1", fx.server.tcp_port());
  client.ping();

  const auto data = make_data();
  std::vector<const uint8_t*> data_ptrs(kK);
  for (uint32_t i = 0; i < kK; ++i) data_ptrs[i] = data[i].data();

  std::vector<std::vector<uint8_t>> remote(kM, std::vector<uint8_t>(kFragLen));
  std::vector<uint8_t*> remote_ptrs(kM);
  for (uint32_t i = 0; i < kM; ++i) remote_ptrs[i] = remote[i].data();
  client.encode(kSpec, data_ptrs.data(), kK, remote_ptrs.data(), kM, kFragLen);

  const auto codec = make_codec(kSpec);
  std::vector<std::vector<uint8_t>> local(kM, std::vector<uint8_t>(kFragLen));
  std::vector<uint8_t*> local_ptrs(kM);
  for (uint32_t i = 0; i < kM; ++i) local_ptrs[i] = local[i].data();
  codec->encode(data_ptrs.data(), local_ptrs.data(), kFragLen);

  for (uint32_t i = 0; i < kM; ++i) EXPECT_EQ(remote[i], local[i]) << "parity " << i;

  const NetServerStats stats = fx.server.stats();
  EXPECT_GE(stats.requests, 1u);
  EXPECT_GE(stats.responses, 2u);  // pong + encode response
  EXPECT_GT(stats.tcp_bytes_in, 0u);
  EXPECT_GT(stats.tcp_bytes_out, 0u);

  // The per-pool net counters saw exactly this pool's traffic.
  bool seen = false;
  for (const auto& pool : fx.service.stats().pools)
    if (pool.spec == kSpec) {
      seen = true;
      EXPECT_GE(pool.net_requests, 1u);
      EXPECT_GT(pool.net_bytes_in, 0u);
      EXPECT_GT(pool.net_bytes_out, 0u);
    }
  EXPECT_TRUE(seen);
}

TEST(NetServer, RemoteReconstructIsAWireServedDegradedRead) {
  ServerFixture fx;
  Client client("127.0.0.1", fx.server.tcp_port());

  const auto data = make_data();
  std::vector<const uint8_t*> data_ptrs(kK);
  for (uint32_t i = 0; i < kK; ++i) data_ptrs[i] = data[i].data();
  const auto codec = make_codec(kSpec);
  std::vector<std::vector<uint8_t>> parity(kM, std::vector<uint8_t>(kFragLen));
  std::vector<uint8_t*> parity_ptrs(kM);
  for (uint32_t i = 0; i < kM; ++i) parity_ptrs[i] = parity[i].data();
  codec->encode(data_ptrs.data(), parity_ptrs.data(), kFragLen);

  // Erase data strips 0 and 3; ship everything else as survivors.
  const std::vector<uint32_t> erased{0, 3};
  std::vector<uint32_t> available;
  std::vector<const uint8_t*> avail_ptrs;
  for (uint32_t i = 0; i < kK; ++i)
    if (i != 0 && i != 3) {
      available.push_back(i);
      avail_ptrs.push_back(data[i].data());
    }
  for (uint32_t i = 0; i < kM; ++i) {
    available.push_back(kK + i);
    avail_ptrs.push_back(parity[i].data());
  }

  std::vector<std::vector<uint8_t>> rebuilt(2, std::vector<uint8_t>(kFragLen, 0xEE));
  std::vector<uint8_t*> out_ptrs{rebuilt[0].data(), rebuilt[1].data()};
  client.reconstruct(kSpec, available, avail_ptrs.data(), erased, out_ptrs.data(),
                     kFragLen);
  EXPECT_EQ(rebuilt[0], data[0]);
  EXPECT_EQ(rebuilt[1], data[3]);
}

TEST(NetServer, ErrorsAreCleanAndTheConnectionSurvives) {
  ServerFixture fx;
  Client client("127.0.0.1", fx.server.tcp_port());
  const auto data = make_data();
  std::vector<const uint8_t*> data_ptrs(kK);
  for (uint32_t i = 0; i < kK; ++i) data_ptrs[i] = data[i].data();
  std::vector<std::vector<uint8_t>> out(kM, std::vector<uint8_t>(kFragLen));
  std::vector<uint8_t*> out_ptrs(kM);
  for (uint32_t i = 0; i < kM; ++i) out_ptrs[i] = out[i].data();

  // Unknown spec: the server's Error frame becomes the exception text.
  EXPECT_THROW(
      client.encode("bogus(3,2)", data_ptrs.data(), kK, out_ptrs.data(), kM, kFragLen),
      std::runtime_error);

  // frag_len violating the codec's geometry: rejected, not crashed.
  EXPECT_THROW(client.encode(kSpec, data_ptrs.data(), kK, out_ptrs.data(), kM, 100),
               std::runtime_error);

  // More erasures than the code tolerates: plan_reconstruct's refusal
  // travels back as an Error frame.
  std::vector<uint32_t> available{5};
  const uint8_t* avail_ptrs[] = {data[5].data()};
  std::vector<uint32_t> erased{0, 1, 2, 3, 4};
  std::vector<std::vector<uint8_t>> rebuilt(5, std::vector<uint8_t>(kFragLen));
  std::vector<uint8_t*> rebuilt_ptrs(5);
  for (size_t i = 0; i < 5; ++i) rebuilt_ptrs[i] = rebuilt[i].data();
  EXPECT_THROW(client.reconstruct(kSpec, available, avail_ptrs, erased,
                                  rebuilt_ptrs.data(), kFragLen),
               std::runtime_error);

  // After three rejected requests the connection is still serving.
  client.ping();
  client.encode(kSpec, data_ptrs.data(), kK, out_ptrs.data(), kM, kFragLen);
  EXPECT_GE(fx.server.stats().errors, 3u);
}

TEST(NetServer, ManySequentialRequestsAndSecondClient) {
  ServerFixture fx;
  Client a("127.0.0.1", fx.server.tcp_port());
  Client b("127.0.0.1", fx.server.tcp_port());
  const auto data = make_data();
  std::vector<const uint8_t*> data_ptrs(kK);
  for (uint32_t i = 0; i < kK; ++i) data_ptrs[i] = data[i].data();
  std::vector<std::vector<uint8_t>> out(kM, std::vector<uint8_t>(kFragLen));
  std::vector<uint8_t*> out_ptrs(kM);
  for (uint32_t i = 0; i < kM; ++i) out_ptrs[i] = out[i].data();

  for (int round = 0; round < 16; ++round) {
    Client& c = round & 1 ? b : a;
    c.encode(kSpec, data_ptrs.data(), kK, out_ptrs.data(), kM, kFragLen);
  }
  const NetServerStats stats = fx.server.stats();
  EXPECT_GE(stats.connections_accepted, 2u);
  EXPECT_GE(stats.requests, 16u);
}

TEST(NetServer, WritingToAClosedPeerThrowsInsteadOfRaisingSigpipe) {
  // Regression: no send passed MSG_NOSIGNAL, so a request written to a
  // connection the server had closed raised SIGPIPE and the process died
  // (status 141) instead of the client throwing.
  CodecService service;
  NetServer server(service, {});
  server.start();
  Client client("127.0.0.1", server.tcp_port());
  client.ping();
  server.stop();  // closes the accepted connection under the client

  BigEncode enc;
  EXPECT_THROW(enc.run(client), std::runtime_error);
}

TEST(NetServer, ClientWriteHonoursTheTimeout) {
  // Regression: write_all blocked with no timeout, so a request to a peer
  // that never reads hung forever. A listening socket that never accepts is
  // such a peer: the kernel completes the handshake from the backlog, then
  // the socket buffers fill and stay full.
  const int listener = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(listener, 0);
  sockaddr_in sa{};
  sa.sin_family = AF_INET;
  sa.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  socklen_t sa_len = sizeof(sa);
  ASSERT_EQ(::bind(listener, reinterpret_cast<sockaddr*>(&sa), sizeof(sa)), 0);
  ASSERT_EQ(::listen(listener, 4), 0);
  ASSERT_EQ(::getsockname(listener, reinterpret_cast<sockaddr*>(&sa), &sa_len), 0);
  const uint16_t port = ntohs(sa.sin_port);

  bool threw = false;
  std::chrono::steady_clock::duration elapsed{};
  std::promise<void> done;
  std::future<void> fut = done.get_future();
  std::thread encoder([&] {
    const auto t0 = std::chrono::steady_clock::now();
    try {
      Client client("127.0.0.1", port, /*timeout_ms=*/200);
      BigEncode enc;
      enc.run(client);
    } catch (const std::runtime_error&) {
      threw = true;
    }
    elapsed = std::chrono::steady_clock::now() - t0;
    done.set_value();
  });
  const bool in_time = fut.wait_for(std::chrono::seconds(10)) == std::future_status::ready;
  // Closing the listener resets the queued connection, which unblocks a
  // client that ignores its timeout, so a regressed build fails here rather
  // than hanging the suite.
  ::close(listener);
  encoder.join();
  EXPECT_TRUE(in_time) << "a 10 MiB encode to a peer that never reads ignored timeout_ms";
  EXPECT_TRUE(threw);
  EXPECT_LT(elapsed, std::chrono::seconds(5));
}

TEST(NetServer, UdpGroupsAreServedOnTheSharedSocket) {
  ServerFixture fx;
  const auto data = make_data();
  std::vector<const uint8_t*> data_ptrs(kK);
  for (uint32_t i = 0; i < kK; ++i) data_ptrs[i] = data[i].data();

  CodecService sender_service;  // sender-side parity encodes only
  const int fd = open_udp_socket("127.0.0.1", 0);
  DatagramSender sender(fd, udp_address("127.0.0.1", fx.server.udp_port()),
                        sender_service.acquire(kSpec), LossPolicy{0.15, 42});

  const int kStripes = 10;
  int complete = 0, degraded = 0;
  for (int s = 0; s < kStripes; ++s) {
    const uint64_t group = sender.send_stripe(data_ptrs.data(), kFragLen);
    const auto ack = recv_ack(fd, 2000);
    ASSERT_TRUE(ack.has_value()) << "stripe " << s;
    EXPECT_EQ(ack->group, group);
    if (ack->status == GroupAck::kComplete) {
      ++complete;
      if (ack->strips_reconstructed > 0) ++degraded;
    }
  }
  close_socket(fd);

  EXPECT_EQ(complete, kStripes);
  EXPECT_GT(degraded, 0);
  EXPECT_EQ(sender.stats().retransmissions, 0u);
  const NetServerStats stats = fx.server.stats();
  EXPECT_EQ(stats.udp_groups, static_cast<size_t>(kStripes));
  EXPECT_EQ(stats.udp_unrecoverable, 0u);
  EXPECT_GE(stats.udp_degraded_reads, static_cast<size_t>(degraded));
}

namespace {

size_t thread_count() {
  size_t n = 0;
  for ([[maybe_unused]] const auto& e : std::filesystem::directory_iterator("/proc/self/task"))
    ++n;
  return n;
}

/// One rs(6,4) stripe: seeded data plus its locally encoded parity, so
/// fragment id i is frag(i) whether it is data or parity.
struct Stripe {
  std::vector<std::vector<uint8_t>> data, parity;
  explicit Stripe(uint64_t seed)
      : data(make_data(seed)), parity(kM, std::vector<uint8_t>(kFragLen)) {
    std::vector<const uint8_t*> in(kK);
    std::vector<uint8_t*> out(kM);
    for (uint32_t i = 0; i < kK; ++i) in[i] = data[i].data();
    for (uint32_t i = 0; i < kM; ++i) out[i] = parity[i].data();
    make_codec(kSpec)->encode(in.data(), out.data(), kFragLen);
  }
  const std::vector<uint8_t>& frag(uint32_t id) const {
    return id < kK ? data[id] : parity[id - kK];
  }
};

/// A blocking loopback TCP socket that speaks raw frames, with a receive
/// timeout so a missing response fails the test instead of hanging it.
struct RawConn {
  int fd = -1;
  explicit RawConn(uint16_t port) {
    fd = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in sa{};
    sa.sin_family = AF_INET;
    sa.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    sa.sin_port = htons(port);
    if (fd < 0 || ::connect(fd, reinterpret_cast<sockaddr*>(&sa), sizeof(sa)) != 0)
      throw std::runtime_error("RawConn: connect failed");
    timeval tv{5, 0};
    ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  }
  ~RawConn() { ::close(fd); }
  void send_all(const std::vector<uint8_t>& bytes) {
    for (size_t off = 0; off < bytes.size();) {
      const ssize_t n = ::send(fd, bytes.data() + off, bytes.size() - off, MSG_NOSIGNAL);
      if (n <= 0) throw std::runtime_error("RawConn: send failed");
      off += static_cast<size_t>(n);
    }
  }
  void recv_exact(uint8_t* out, size_t len) {
    for (size_t off = 0; off < len;) {
      const ssize_t n = ::recv(fd, out + off, len - off, 0);
      if (n <= 0) throw std::runtime_error("RawConn: peer closed or receive timed out");
      off += static_cast<size_t>(n);
    }
  }
  /// One response frame; `body` holds the bytes the view points into.
  FrameView recv_frame(std::vector<uint8_t>& body) {
    uint8_t head[wire::kFrameHeaderSize];
    recv_exact(head, sizeof(head));
    FrameHeader h;
    if (decode_frame_header(head, sizeof(head), h) != FrameError::Ok)
      throw std::runtime_error("RawConn: bad response header");
    body.resize(h.body_size());
    recv_exact(body.data(), body.size());
    FrameView view;
    if (bind_frame_body(h, body.data(), body.size(), view) != FrameError::Ok)
      throw std::runtime_error("RawConn: bad response body");
    return view;
  }
};

std::vector<uint8_t> encode_frame(uint64_t id, const Stripe& s) {
  FrameHeader h;
  h.type = FrameType::EncodeRequest;
  h.request_id = id;
  h.frag_len = kFragLen;
  h.present_bitmap = (uint64_t{1} << kK) - 1;
  h.payload_count = kK;
  std::vector<const uint8_t*> in(kK);
  for (uint32_t i = 0; i < kK; ++i) in[i] = s.data[i].data();
  return build_frame(h, kSpec, in.data());
}

std::vector<uint8_t> reconstruct_frame(uint64_t id, const Stripe& s,
                                       const std::vector<uint32_t>& available,
                                       const std::vector<uint32_t>& erased) {
  FrameHeader h;
  h.type = FrameType::ReconstructRequest;
  h.request_id = id;
  h.frag_len = kFragLen;
  std::vector<const uint8_t*> in;
  for (uint32_t a : available) {  // ascending, as build_frame gathers them
    h.present_bitmap |= uint64_t{1} << a;
    in.push_back(s.frag(a).data());
  }
  for (uint32_t e : erased) h.erased_bitmap |= uint64_t{1} << e;
  h.payload_count = static_cast<uint16_t>(available.size());
  return build_frame(h, kSpec, in.data());
}

std::vector<uint32_t> survivors_of(const std::vector<uint32_t>& erased) {
  std::vector<uint32_t> out;
  for (uint32_t id = 0; id < kK + kM; ++id)
    if (std::find(erased.begin(), erased.end(), id) == erased.end()) out.push_back(id);
  return out;
}

}  // namespace

TEST(NetServer, StartAddsExactlyOneThread) {
  // The event loop runs every pass's jobs itself: start() adds the loop
  // thread and nothing else. Another test's detached client thread may end
  // while this one counts, so retry until a start/stop cycle leaves the
  // count where it began.
  CodecService service;  // its shard workers start here, not in start()
  NetServer server(service, {});
  for (int attempt = 0; attempt < 5; ++attempt) {
    const size_t before = thread_count();
    server.start();
    const size_t running = thread_count();
    server.stop();
    if (thread_count() != before) continue;
    EXPECT_EQ(running, before + 1) << "threads added by NetServer::start()";
    return;
  }
  FAIL() << "the process's thread count never settled";
}

TEST(NetServer, PipelinedFramesInOnePassAreAllAnswered) {
  // max_inflight_per_conn mixed requests written back to back, so one poll
  // pass can read and submit them all; the unrecoverable pattern in the
  // middle must come back as an Error frame without costing its neighbours
  // their answers, and the connection must keep serving afterwards.
  ServerFixture fx;
  const size_t n = ServerOptions{}.max_inflight_per_conn;
  ASSERT_GE(n, 4u);
  const uint64_t bad_id = n / 2;
  const std::vector<std::vector<uint32_t>> patterns = {{0, 3}, {1, 7}, {2, 4, 5, 9}};

  std::vector<Stripe> stripes;
  std::map<uint64_t, std::vector<uint32_t>> expect;  // id -> fragment ids answered
  std::vector<uint8_t> wire;
  for (uint64_t id = 1; id <= n; ++id) {
    stripes.emplace_back(0x1000 + id);
    const Stripe& s = stripes.back();
    std::vector<uint8_t> frame;
    if (id == bad_id) {
      // five erasures with one survivor: beyond any rs(6,4) pattern
      frame = reconstruct_frame(id, s, {5}, {0, 1, 2, 3, 4});
    } else if (id % 2) {
      frame = encode_frame(id, s);
      for (uint32_t p = 0; p < kM; ++p) expect[id].push_back(kK + p);
    } else {
      const std::vector<uint32_t>& erased = patterns[id % patterns.size()];
      frame = reconstruct_frame(id, s, survivors_of(erased), erased);
      expect[id] = erased;
    }
    wire.insert(wire.end(), frame.begin(), frame.end());
  }

  RawConn conn(fx.server.tcp_port());
  conn.send_all(wire);
  std::map<uint64_t, int> seen;
  for (size_t i = 0; i < n; ++i) {
    std::vector<uint8_t> body;
    const FrameView v = conn.recv_frame(body);
    const uint64_t id = v.header.request_id;
    ASSERT_TRUE(id >= 1 && id <= n) << "response id " << id;
    ++seen[id];
    if (id == bad_id) {
      EXPECT_EQ(v.header.type, FrameType::Error);
      continue;
    }
    ASSERT_EQ(v.header.type, FrameType::Response) << "id " << id << ": " << v.spec;
    const std::vector<uint32_t>& ids = expect.at(id);
    ASSERT_EQ(v.payloads.size(), ids.size()) << "id " << id;
    for (size_t j = 0; j < ids.size(); ++j) {
      const std::vector<uint8_t>& want = stripes[id - 1].frag(ids[j]);
      EXPECT_TRUE(std::equal(want.begin(), want.end(), v.payloads[j].begin(),
                             v.payloads[j].end()))
          << "id " << id << " fragment " << ids[j];
    }
  }
  for (uint64_t id = 1; id <= n; ++id) EXPECT_EQ(seen[id], 1) << "responses for id " << id;

  // The connection still serves: one more encode on it, checked byte for byte.
  const Stripe again(0x2000);
  conn.send_all(encode_frame(n + 1, again));
  std::vector<uint8_t> body;
  const FrameView v = conn.recv_frame(body);
  EXPECT_EQ(v.header.type, FrameType::Response);
  EXPECT_EQ(v.header.request_id, n + 1);
  ASSERT_EQ(v.payloads.size(), kM);
  for (uint32_t p = 0; p < kM; ++p)
    EXPECT_TRUE(std::equal(again.parity[p].begin(), again.parity[p].end(),
                           v.payloads[p].begin(), v.payloads[p].end()))
        << "parity " << p;
  EXPECT_GE(fx.server.stats().errors, 1u);
}

TEST(NetServer, StopWithTrafficInFlightReturns) {
  // Two clients encode in a loop while the server stops under them. stop()
  // must return, and each client must see a correct response or an
  // exception (its connection closed), never a hang. The shared state lets
  // a regressed build fail here with its threads detached rather than
  // blocking the suite.
  struct Shared {
    CodecService service;
    NetServer server{service, {}};
    Stripe stripe{0xC0FFEE};
    std::atomic<size_t> answered[2]{};
    std::atomic<bool> wrong_bytes{false};
  };
  auto sh = std::make_shared<Shared>();
  sh->server.start();
  const uint16_t port = sh->server.tcp_port();

  std::vector<std::future<void>> clients;
  std::vector<std::thread> threads;
  for (int c = 0; c < 2; ++c) {
    auto done = std::make_shared<std::promise<void>>();
    clients.push_back(done->get_future());
    threads.emplace_back([sh, done, port, c] {
      try {
        // A long client timeout: only the server closing the connection
        // ends the loop in time.
        Client client("127.0.0.1", port, /*timeout_ms=*/60000);
        std::vector<const uint8_t*> in(kK);
        for (uint32_t i = 0; i < kK; ++i) in[i] = sh->stripe.data[i].data();
        std::vector<std::vector<uint8_t>> out(kM, std::vector<uint8_t>(kFragLen));
        std::vector<uint8_t*> out_ptrs(kM);
        for (uint32_t i = 0; i < kM; ++i) out_ptrs[i] = out[i].data();
        for (;;) {
          client.encode(kSpec, in.data(), kK, out_ptrs.data(), kM, kFragLen);
          if (out != sh->stripe.parity) sh->wrong_bytes = true;
          sh->answered[c].fetch_add(1);
        }
      } catch (const std::exception&) {
      }
      done->set_value();
    });
  }

  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while ((sh->answered[0] < 8 || sh->answered[1] < 8) &&
         std::chrono::steady_clock::now() < deadline)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  EXPECT_GE(sh->answered[0].load(), 8u);
  EXPECT_GE(sh->answered[1].load(), 8u);

  auto stop_done = std::make_shared<std::promise<void>>();
  std::future<void> stopped = stop_done->get_future();
  threads.emplace_back([sh, stop_done] {
    sh->server.stop();
    stop_done->set_value();
  });
  bool hung = stopped.wait_for(std::chrono::seconds(10)) != std::future_status::ready;
  EXPECT_FALSE(hung) << "stop() did not return with traffic in flight";
  for (int c = 0; c < 2 && !hung; ++c) {
    hung = clients[c].wait_for(std::chrono::seconds(10)) != std::future_status::ready;
    EXPECT_FALSE(hung) << "client " << c << " neither answered nor failed after stop()";
  }
  EXPECT_FALSE(sh->wrong_bytes.load());
  for (std::thread& t : threads) {
    if (hung)
      t.detach();  // leave the shared state to the stuck threads
    else
      t.join();
  }
}
