// NetServer + net::Client over real loopback TCP (plus the server's shared
// UDP socket): remote encode matches local encode byte for byte, remote
// reconstruct is a wire-served degraded read, malformed and unsatisfiable
// requests come back as clean Error frames on a connection that stays
// usable, the per-pool ServiceStats net counters see the traffic, and a
// client whose peer closed or stopped reading throws instead of dying of
// SIGPIPE or hanging.
#include <arpa/inet.h>
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cstring>
#include <future>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "api/registry.hpp"
#include "api/service.hpp"
#include "net/client.hpp"
#include "net/datagram.hpp"
#include "net/server.hpp"

using namespace xorec;
using namespace xorec::net;

namespace {

constexpr uint32_t kK = 6, kM = 4;
constexpr size_t kFragLen = 1024;
const char* kSpec = "rs(6,4)";

std::vector<std::vector<uint8_t>> make_data() {
  std::vector<std::vector<uint8_t>> data(kK, std::vector<uint8_t>(kFragLen));
  uint64_t x = 0xBEEF;
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
  // Regression: stop() latches the completion-thread stop flag; before
  // start() learned to reset it, a restarted server's completion thread
  // exited immediately and encode responses were never delivered. Ping is
  // answered inline by the event loop, so only a codec request (whose
  // response rides the completion thread) can detect this — run it with a
  // timeout so a regressed build fails instead of hanging forever.
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
                     "(completion thread dead?)";
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
