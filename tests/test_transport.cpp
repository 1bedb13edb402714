// Tests for the event-driven transport core: the epoll reactor, the elastic
// task pool, the connection pool, and the pipelining mux channel.
//
// The reactor under test runs a tiny echo protocol: request type kEchoReq
// carries an 8-byte tag followed by arbitrary bytes; the handler replies
// kEchoRep with the identical payload under the request's frame id,
// optionally sleeping first when the payload says so — enough to script
// out-of-order completions and deadline races without a full server. The
// tag tells a test which request a reply answers.
#include <gtest/gtest.h>

#include <atomic>
#include <condition_variable>
#include <fstream>
#include <memory>
#include <mutex>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "common/clock.hpp"
#include "common/metrics.hpp"
#include "net/fault.hpp"
#include "net/pool.hpp"
#include "net/reactor.hpp"
#include "net/socket.hpp"
#include "net/task_pool.hpp"
#include "net/transport.hpp"

namespace ns::net {
namespace {

constexpr std::uint16_t kEchoReq = 41;
constexpr std::uint16_t kEchoRep = 42;

serial::Bytes make_payload(std::uint64_t request_id, double sleep_s = 0.0,
                           std::size_t extra = 0) {
  serial::Bytes payload(8 + 8 + extra);
  for (std::size_t i = 0; i < 8; ++i) {
    payload[i] = static_cast<std::uint8_t>(request_id >> (8 * i));
  }
  // Sleep request rides as milliseconds in the next 8 bytes.
  const auto ms = static_cast<std::uint64_t>(sleep_s * 1000.0);
  for (std::size_t i = 0; i < 8; ++i) {
    payload[8 + i] = static_cast<std::uint8_t>(ms >> (8 * i));
  }
  for (std::size_t i = 0; i < extra; ++i) {
    payload[16 + i] = static_cast<std::uint8_t>(request_id + i);
  }
  return payload;
}

std::uint64_t payload_id(const serial::Bytes& payload) {
  std::uint64_t id = 0;
  for (std::size_t i = 0; i < 8 && i < payload.size(); ++i) {
    id |= static_cast<std::uint64_t>(payload[i]) << (8 * i);
  }
  return id;
}

double payload_sleep_s(const serial::Bytes& payload) {
  if (payload.size() < 16) return 0.0;
  std::uint64_t ms = 0;
  for (std::size_t i = 0; i < 8; ++i) {
    ms |= static_cast<std::uint64_t>(payload[8 + i]) << (8 * i);
  }
  return static_cast<double>(ms) / 1000.0;
}

/// Poll until the reactor reports exactly `want` live connections (closes
/// land on the loop thread, asynchronously to the peer observing EOF).
bool eventually_conn_count(Reactor& reactor, std::size_t want, double timeout_s = 3.0) {
  const Deadline deadline(timeout_s);
  while (!deadline.expired()) {
    if (reactor.connection_count() == want) return true;
    sleep_seconds(0.005);
  }
  return reactor.connection_count() == want;
}

/// Threads in this process, from /proc/self/status.
int thread_count() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("Threads:", 0) == 0) return std::stoi(line.substr(8));
  }
  return -1;
}

/// Reactor wrapper serving the echo protocol on an ephemeral port.
class EchoServer {
 public:
  explicit EchoServer(ReactorConfig config = {}, LinkShape reply_shape = LinkShape::unshaped()) {
    auto listener = TcpListener::bind({"127.0.0.1", 0});
    EXPECT_TRUE(listener.ok());
    endpoint_ = listener.value().endpoint();
    auto status = reactor_.start(
        std::move(listener).value(),
        [this, reply_shape](const ReactorConnPtr& conn, Message&& msg) {
          if (msg.type != kEchoReq) return false;
          frames_.fetch_add(1);
          const double sleep_s = payload_sleep_s(msg.payload);
          if (sleep_s > 0.0) sleep_seconds(sleep_s);
          return conn->send(kEchoRep, msg.payload, msg.id, reply_shape).ok();
        },
        config);
    EXPECT_TRUE(status.ok());
  }

  ~EchoServer() {
    reactor_.stop();
    ConnectionPool::instance().clear();
    FaultInjector::instance().disarm_all();
  }

  const Endpoint& endpoint() const { return endpoint_; }
  Reactor& reactor() { return reactor_; }
  std::uint64_t frames() const { return frames_.load(); }

 private:
  Endpoint endpoint_;
  Reactor reactor_;
  std::atomic<std::uint64_t> frames_{0};
};

// ---- reactor ----

TEST(ReactorTest, EchoRoundTrip) {
  EchoServer server;
  auto conn = TcpConnection::connect(server.endpoint());
  ASSERT_TRUE(conn.ok());
  const auto payload = make_payload(7, 0.0, 32);
  ASSERT_TRUE(send_message(conn.value(), kEchoReq, payload).ok());
  auto reply = recv_message(conn.value(), 5.0);
  ASSERT_TRUE(reply.ok());
  EXPECT_EQ(reply.value().type, kEchoRep);
  EXPECT_EQ(reply.value().payload, payload);
}

// Many frames glued into the stream before any reply is read: the reactor
// must decode them all (multiple frames per read buffer) and the handlers
// must reply on the shared connection without corrupting the framing.
TEST(ReactorTest, PipelinedFramesOnOneConnection) {
  EchoServer server;
  auto conn = TcpConnection::connect(server.endpoint());
  ASSERT_TRUE(conn.ok());

  constexpr int kFrames = 32;
  for (int i = 0; i < kFrames; ++i) {
    ASSERT_TRUE(
        send_message(conn.value(), kEchoReq, make_payload(static_cast<std::uint64_t>(i + 1)))
            .ok());
  }
  // Replies may complete out of order (concurrent handlers); collect ids.
  std::vector<bool> seen(kFrames + 1, false);
  for (int i = 0; i < kFrames; ++i) {
    auto reply = recv_message(conn.value(), 5.0);
    ASSERT_TRUE(reply.ok());
    ASSERT_EQ(reply.value().type, kEchoRep);
    const std::uint64_t id = payload_id(reply.value().payload);
    ASSERT_GE(id, 1u);
    ASSERT_LE(id, static_cast<std::uint64_t>(kFrames));
    EXPECT_FALSE(seen[id]) << "duplicate reply for id " << id;
    seen[id] = true;
  }
  EXPECT_EQ(server.frames(), static_cast<std::uint64_t>(kFrames));
}

// A slow handler must not stall other connections (the reactor loop never
// blocks on a handler): a fast request on a second connection completes
// while the slow one is still sleeping.
TEST(ReactorTest, SlowHandlerDoesNotBlockOtherConnections) {
  EchoServer server;
  auto slow = TcpConnection::connect(server.endpoint());
  auto fast = TcpConnection::connect(server.endpoint());
  ASSERT_TRUE(slow.ok());
  ASSERT_TRUE(fast.ok());

  ASSERT_TRUE(send_message(slow.value(), kEchoReq, make_payload(1, /*sleep_s=*/0.8)).ok());
  const Stopwatch watch;
  ASSERT_TRUE(send_message(fast.value(), kEchoReq, make_payload(2)).ok());
  auto reply = recv_message(fast.value(), 5.0);
  ASSERT_TRUE(reply.ok());
  EXPECT_LT(watch.elapsed(), 0.5) << "fast request waited on the slow handler";
  auto slow_reply = recv_message(slow.value(), 5.0);
  ASSERT_TRUE(slow_reply.ok());
}

// The idle sweep closes keep-alive connections that go quiet; an active
// in-flight handler shields its connection from the sweep.
TEST(ReactorTest, IdleConnectionsAreSweptClosed) {
  ReactorConfig config;
  config.idle_timeout_s = 0.2;
  EchoServer server(config);
  auto conn = TcpConnection::connect(server.endpoint());
  ASSERT_TRUE(conn.ok());
  // Prove liveness first, then go idle.
  ASSERT_TRUE(send_message(conn.value(), kEchoReq, make_payload(1)).ok());
  ASSERT_TRUE(recv_message(conn.value(), 5.0).ok());

  // Sweep cadence is 1 s; within ~2 s the peer must have closed us.
  std::uint8_t byte = 0;
  auto status = conn.value().recv_all(&byte, 1, 2.5);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.error().code, ErrorCode::kConnectionClosed);
}

// stop_accepting() releases the port while established connections keep
// serving — the injected-crash semantics servers rely on.
TEST(ReactorTest, StopAcceptingReleasesPortButServesExisting) {
  EchoServer server;
  auto conn = TcpConnection::connect(server.endpoint());
  ASSERT_TRUE(conn.ok());

  server.reactor().stop_accepting();
  // The loop thread closes the listener on its next wakeup; new dials must
  // start failing (give the async close a moment, then a short dial budget).
  const Deadline deadline(2.0);
  bool refused = false;
  while (!deadline.expired()) {
    auto fresh = TcpConnection::connect_raw(server.endpoint(), 0.05);
    if (!fresh.ok()) {
      refused = true;
      break;
    }
    sleep_seconds(0.02);
  }
  EXPECT_TRUE(refused) << "listener still accepting after stop_accepting()";

  // The established connection still serves.
  ASSERT_TRUE(send_message(conn.value(), kEchoReq, make_payload(9)).ok());
  auto reply = recv_message(conn.value(), 5.0);
  ASSERT_TRUE(reply.ok());
  EXPECT_EQ(payload_id(reply.value().payload), 9u);
}

// ---- read-path fuzz: hostile bytes must close the peer, never the loop ----

// Pure noise on the wire: the reactor must fail header decode (bad magic),
// drop the connection, and keep serving other peers untouched.
TEST(ReactorTest, GarbageBytesCloseConnectionReactorSurvives) {
  EchoServer server;
  std::mt19937_64 rng(0xdecafbad);
  for (int round = 0; round < 8; ++round) {
    auto evil = TcpConnection::connect(server.endpoint());
    ASSERT_TRUE(evil.ok());
    serial::Bytes noise(1024 + rng() % 4096);
    for (auto& b : noise) b = static_cast<std::uint8_t>(rng());
    // The send may fail midway once the reactor slams the door; either way
    // the peer must observe a close, not a hang.
    (void)evil.value().send_all(noise.data(), noise.size());
    std::uint8_t byte = 0;
    {
    auto status = evil.value().recv_all(&byte, 1, 2.0);
    ASSERT_FALSE(status.ok());
    EXPECT_EQ(status.error().code, ErrorCode::kConnectionClosed);
  }
  }
  // A well-formed peer is unaffected.
  auto good = TcpConnection::connect(server.endpoint());
  ASSERT_TRUE(good.ok());
  ASSERT_TRUE(send_message(good.value(), kEchoReq, make_payload(11)).ok());
  auto reply = recv_message(good.value(), 5.0);
  ASSERT_TRUE(reply.ok());
  EXPECT_EQ(payload_id(reply.value().payload), 11u);
}

// A syntactically valid header whose payload fails the CRC: the frame must
// be rejected at check_payload, the connection dropped, and a pipelined
// valid frame sitting behind the corrupt one must NOT be dispatched — a
// misframed stream cannot be trusted for anything that follows.
TEST(ReactorTest, CorruptPayloadDropsConnectionBeforeLaterFrames) {
  EchoServer server;
  auto evil = TcpConnection::connect(server.endpoint());
  ASSERT_TRUE(evil.ok());

  serial::Bytes corrupt = serial::build_frame(kEchoReq, make_payload(21));
  corrupt.back() ^= 0xff;  // payload no longer matches the header CRC
  const serial::Bytes valid = serial::build_frame(kEchoReq, make_payload(22));
  serial::Bytes wire = corrupt;
  wire.insert(wire.end(), valid.begin(), valid.end());
  (void)evil.value().send_all(wire.data(), wire.size());

  std::uint8_t byte = 0;
  {
    auto status = evil.value().recv_all(&byte, 1, 2.0);
    ASSERT_FALSE(status.ok());
    EXPECT_EQ(status.error().code, ErrorCode::kConnectionClosed);
  }
  // Give any (wrong) dispatch of frame 22 a beat to land, then assert the
  // reactor stopped at the corruption: neither frame ran the handler.
  sleep_seconds(0.1);
  EXPECT_EQ(server.frames(), 0u) << "frames after a CRC failure were dispatched";
}

// A truncated header followed by an abrupt close (the classic port-scanner
// footprint) must not wedge the loop or leak the connection slot.
TEST(ReactorTest, TruncatedHeaderThenCloseIsHarmless) {
  EchoServer server;
  for (int round = 0; round < 4; ++round) {
    auto evil = TcpConnection::connect(server.endpoint());
    ASSERT_TRUE(evil.ok());
    const serial::Bytes frame = serial::build_frame(kEchoReq, make_payload(31));
    ASSERT_TRUE(evil.value().send_all(frame.data(), serial::kHeaderSize / 2).ok());
    evil.value().close();
  }
  auto good = TcpConnection::connect(server.endpoint());
  ASSERT_TRUE(good.ok());
  ASSERT_TRUE(send_message(good.value(), kEchoReq, make_payload(32)).ok());
  auto reply = recv_message(good.value(), 5.0);
  ASSERT_TRUE(reply.ok());
  EXPECT_EQ(payload_id(reply.value().payload), 32u);
  EXPECT_TRUE(eventually_conn_count(server.reactor(), 1));
}

// ---- task pool ----

// The pool grows past its core threads when handlers block: N blocking
// tasks with N > core must all run concurrently.
TEST(TaskPoolTest, GrowsBeyondCoreThreadsUnderBlockingLoad) {
  TaskPool pool;
  pool.start(/*core_threads=*/2, /*max_threads=*/16);

  constexpr int kTasks = 6;
  std::mutex mu;
  std::condition_variable cv;
  int started = 0;
  bool release = false;
  for (int i = 0; i < kTasks; ++i) {
    ASSERT_TRUE(pool.submit([&] {
      std::unique_lock<std::mutex> lock(mu);
      ++started;
      cv.notify_all();
      cv.wait(lock, [&] { return release; });
    }));
  }
  {
    std::unique_lock<std::mutex> lock(mu);
    const bool all_started = cv.wait_for(lock, std::chrono::seconds(5),
                                         [&] { return started == kTasks; });
    EXPECT_TRUE(all_started) << "pool did not grow past core threads; started=" << started;
    release = true;
    cv.notify_all();
  }
  pool.stop();
  EXPECT_GE(pool.thread_count(), 0u);  // stop() joined everything without deadlock
}

// ---- connection pool ----

// A warm channel is reused: the second exchange rides the first one's socket
// and counts as a pool hit.
TEST(PoolTest, WarmChannelIsReused) {
  EchoServer server;
  auto& pool = ConnectionPool::instance();
  pool.clear();
  const std::uint64_t hits_before = metrics::counter("net.pool.hits_total").value();
  const std::uint64_t misses_before = metrics::counter("net.pool.misses_total").value();

  auto first = call(server.endpoint(), kEchoReq, make_payload(1), 5.0, 2.0);
  ASSERT_TRUE(first.ok());
  auto second = call(server.endpoint(), kEchoReq, make_payload(2), 5.0, 2.0);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(payload_id(second.value().payload), 2u);

  EXPECT_EQ(metrics::counter("net.pool.misses_total").value(), misses_before + 1);
  EXPECT_GT(metrics::counter("net.pool.hits_total").value(), hits_before)
      << "warm channel not reused";
  EXPECT_EQ(server.reactor().connection_count(), 1u);
}

// A reply that arrives after its caller gave up never reaches the next
// caller: it is dropped by whoever reads it, or, if it sits unread on an
// idle channel, the channel is retired and the next caller redials.
TEST(PoolTest, LateReplyNeverReachesNextCaller) {
  EchoServer server;
  ConnectionPool::instance().clear();
  const std::uint64_t evicted_before = metrics::counter("net.mux.evicted_total").value();

  // Handler sleeps 300 ms; the caller gives up after 50 ms.
  auto late = call(server.endpoint(), kEchoReq, make_payload(1, /*sleep_s=*/0.3),
                   /*timeout_s=*/0.05, /*dial_timeout_s=*/2.0);
  ASSERT_FALSE(late.ok());
  EXPECT_EQ(late.error().code, ErrorCode::kTimeout);

  auto next = call(server.endpoint(), kEchoReq, make_payload(2), 5.0, 2.0);
  ASSERT_TRUE(next.ok());
  EXPECT_EQ(payload_id(next.value().payload), 2u) << "stale reply leaked into the next call";

  sleep_seconds(0.4);  // the late reply lands on an idle channel, unread
  auto after = call(server.endpoint(), kEchoReq, make_payload(3), 5.0, 2.0);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(payload_id(after.value().payload), 3u) << "stale reply leaked into a later call";
  EXPECT_GT(metrics::counter("net.mux.evicted_total").value(), evicted_before)
      << "a channel holding unread bytes was handed out again";
}

// A mid-frame stall in either direction takes the channel out of service and
// the next call redials. A stalled request retires the channel (its half
// frame would corrupt every later request); a stalled reply poisons it once
// the progress window passes.
TEST(PoolTest, MidFrameStallPoisonsChannelAndRedials) {
  EchoServer server;
  auto& pool = ConnectionPool::instance();
  pool.clear();

  auto warm = pool.channel(server.endpoint(), 2.0);
  ASSERT_TRUE(warm.ok());
  ASSERT_TRUE(warm.value()->call(kEchoReq, make_payload(1), 5.0).ok());

  FaultPlan request_stall = FaultPlan::single(FaultMode::kStall, 1.0);
  request_stall.rules[0].max_triggers = 1;
  FaultInjector::instance().arm(server.endpoint(), request_stall);
  auto stalled = warm.value()->call(kEchoReq, make_payload(2), /*timeout_s=*/0.2);
  ASSERT_FALSE(stalled.ok());
  EXPECT_EQ(stalled.error().code, ErrorCode::kTimeout);
  EXPECT_FALSE(warm.value()->healthy()) << "channel with a torn request kept in service";
  FaultInjector::instance().disarm_all();

  auto redialed = pool.channel(server.endpoint(), 2.0);
  ASSERT_TRUE(redialed.ok());
  EXPECT_NE(redialed.value().get(), warm.value().get());
  auto after = redialed.value()->call(kEchoReq, make_payload(3), 5.0);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(payload_id(after.value().payload), 3u);

  // Now the reply stalls: half a frame, then silence.
  const std::uint64_t poisoned_before = metrics::counter("net.mux.poisoned_total").value();
  FaultPlan reply_stall;
  reply_stall.rules.push_back(FaultRule{FaultMode::kStall, 1.0, 1, {kEchoRep}});
  FaultInjector::instance().arm(server.endpoint(), reply_stall);
  auto silent = redialed.value()->call(kEchoReq, make_payload(4), /*timeout_s=*/5.0);
  ASSERT_FALSE(silent.ok());
  EXPECT_TRUE(is_retryable(silent.error().code)) << silent.error().to_string();
  EXPECT_FALSE(redialed.value()->healthy());
  EXPECT_GT(metrics::counter("net.mux.poisoned_total").value(), poisoned_before);
  FaultInjector::instance().disarm_all();

  auto last = call(server.endpoint(), kEchoReq, make_payload(5), 5.0, 2.0);
  ASSERT_TRUE(last.ok());
  EXPECT_EQ(payload_id(last.value().payload), 5u);
}

// Fault parity: an armed connect fault fires even when the pool is warm —
// the pool is a dial cache, not a way around chaos schedules.
TEST(PoolTest, ConnectFaultFiresOnWarmPool) {
  EchoServer server;
  auto& pool = ConnectionPool::instance();
  pool.clear();

  auto warm = call(server.endpoint(), kEchoReq, make_payload(1), 5.0, 2.0);
  ASSERT_TRUE(warm.ok());

  FaultInjector::instance().arm(server.endpoint(),
                                FaultPlan::single(FaultMode::kConnectRefused, 1.0));
  auto refused = pool.channel(server.endpoint(), 0.2);
  EXPECT_FALSE(refused.ok()) << "warm pool bypassed an armed connect fault";
  FaultInjector::instance().disarm_all();
}

// The MSG_PEEK staleness check: a cached channel whose peer closed it
// (server restart, idle sweep) is retired at hand-out, not used.
TEST(PoolTest, PeerClosedIdleConnectionIsNotHandedOut) {
  ReactorConfig config;
  config.idle_timeout_s = 0.2;  // server sweeps the idle conn out from under the pool
  EchoServer server(config);
  auto& pool = ConnectionPool::instance();
  pool.clear();

  auto warm = pool.channel(server.endpoint(), 2.0);
  ASSERT_TRUE(warm.ok());
  ASSERT_TRUE(warm.value()->call(kEchoReq, make_payload(1), 5.0).ok());

  sleep_seconds(1.6);  // past the server's sweep; the cached socket is now dead

  // kChannelIdleLimit (2.5 s) has not elapsed, so only the MSG_PEEK check
  // can keep this call off the dead socket.
  auto reply = call(server.endpoint(), kEchoReq, make_payload(2), 5.0, 2.0);
  ASSERT_TRUE(reply.ok()) << reply.error().to_string();
  EXPECT_EQ(payload_id(reply.value().payload), 2u);
  EXPECT_FALSE(warm.value()->healthy());
}

// ---- mux channel (pipelining) ----

TEST(MuxTest, ConcurrentCallsDemuxByRequestId) {
  EchoServer server;
  auto& pool = ConnectionPool::instance();
  pool.clear();

  auto channel = pool.channel(server.endpoint(), 2.0);
  ASSERT_TRUE(channel.ok());

  // Out-of-order completion by construction: tag 1 sleeps, tag 2 does not.
  // Both share one socket; each must get exactly its own payload back.
  std::thread slow([&] {
    auto reply = channel.value()->call(kEchoReq, make_payload(1, /*sleep_s=*/0.4),
                                       /*timeout_s=*/5.0);
    ASSERT_TRUE(reply.ok());
    EXPECT_EQ(payload_id(reply.value().payload), 1u);
  });
  sleep_seconds(0.05);  // let the slow call hit the wire first
  auto fast = channel.value()->call(kEchoReq, make_payload(2), 5.0);
  ASSERT_TRUE(fast.ok());
  EXPECT_EQ(payload_id(fast.value().payload), 2u);
  slow.join();

  // Both calls shared one pipelined connection.
  EXPECT_EQ(server.reactor().connection_count(), 1u);
}

TEST(MuxTest, ManyPipelinedCallsOverOneSocket) {
  EchoServer server;
  auto& pool = ConnectionPool::instance();
  pool.clear();

  auto channel = pool.channel(server.endpoint(), 2.0);
  ASSERT_TRUE(channel.ok());
  constexpr int kCalls = 24;
  std::vector<std::thread> threads;
  std::atomic<int> ok_count{0};
  for (int i = 0; i < kCalls; ++i) {
    threads.emplace_back([&, i] {
      const auto id = static_cast<std::uint64_t>(i + 1);
      auto reply = channel.value()->call(kEchoReq, make_payload(id), 5.0);
      if (reply.ok() && payload_id(reply.value().payload) == id) ok_count.fetch_add(1);
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(ok_count.load(), kCalls);
  EXPECT_EQ(server.reactor().connection_count(), 1u)
      << "pipelined calls dialed extra sockets";
}

// Concurrent callers through the pool spread over at most
// kChannelsPerEndpoint sockets; beyond that they pipeline on shared ones.
TEST(MuxTest, ConcurrentCallersShareAtMostCapChannels) {
  EchoServer server;
  ConnectionPool::instance().clear();

  constexpr int kCalls = 24;
  std::vector<std::thread> threads;
  std::atomic<int> ok_count{0};
  for (int i = 0; i < kCalls; ++i) {
    threads.emplace_back([&, i] {
      const auto id = static_cast<std::uint64_t>(i + 1);
      auto reply = call(server.endpoint(), kEchoReq, make_payload(id, /*sleep_s=*/0.1), 5.0, 2.0);
      if (reply.ok() && payload_id(reply.value().payload) == id) ok_count.fetch_add(1);
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(ok_count.load(), kCalls);
  // Racing dials may overshoot the cap; the uncached extras close when their
  // callers drop them.
  const Deadline settle(3.0);
  while (server.reactor().connection_count() > kChannelsPerEndpoint && !settle.expired()) {
    sleep_seconds(0.005);
  }
  const std::size_t sockets = server.reactor().connection_count();
  EXPECT_LE(sockets, kChannelsPerEndpoint);
  EXPECT_GT(sockets, 1u) << "concurrent callers all queued on one socket";
}

// The read role is handed only to a caller asleep on its reply. A caller
// still sending a large request cannot take it yet, and a hand-off aimed at
// it would leave a sleeping caller's delivered reply unread until timeout.
TEST(MuxTest, ReadRoleHandOffSkipsCallerStillSending) {
  EchoServer server;
  auto& pool = ConnectionPool::instance();
  pool.clear();
  auto channel = pool.channel(server.endpoint(), 2.0);
  ASSERT_TRUE(channel.ok());

  // First reader: its reply comes at ~0.2 s, then it leaves the role.
  std::thread first([&] {
    auto reply = channel.value()->call(kEchoReq, make_payload(1, /*sleep_s=*/0.2), 5.0);
    ASSERT_TRUE(reply.ok());
    EXPECT_EQ(payload_id(reply.value().payload), 1u);
  });
  sleep_seconds(0.05);
  // Sleeper: sent, asleep behind the first reader, reply due at ~0.45 s.
  std::thread sleeper([&] {
    auto reply = channel.value()->call(kEchoReq, make_payload(2, /*sleep_s=*/0.4), 1.0);
    ASSERT_TRUE(reply.ok()) << "delivered reply left unread: " << reply.error().to_string();
    EXPECT_EQ(payload_id(reply.value().payload), 2u);
  });
  sleep_seconds(0.05);
  // Sender: a 512 KiB request paced over ~1 s, still sending at hand-off.
  auto slow_send = channel.value()->call(kEchoReq, make_payload(3, 0.0, 512 * 1024), 5.0,
                                         LinkShape{0.0, 0.5e6});
  ASSERT_TRUE(slow_send.ok()) << slow_send.error().to_string();
  EXPECT_EQ(payload_id(slow_send.value().payload), 3u);
  first.join();
  sleeper.join();
}

// A reader whose deadline passes while it reads someone else's paced bulk
// reply leaves at the next 64 KiB step; the bulk caller finishes the frame.
TEST(MuxTest, ReaderLeavesAtItsDeadlineDuringPacedBulkReply) {
  constexpr std::size_t kBulk = 3u << 20;
  EchoServer server(ReactorConfig{}, LinkShape{0.0, 2.0e6});  // reply paced over ~1.6 s
  auto& pool = ConnectionPool::instance();
  pool.clear();
  auto channel = pool.channel(server.endpoint(), 2.0);
  ASSERT_TRUE(channel.ok());

  // The short call goes first and holds the read role; its own reply comes
  // too late for its 1 s deadline.
  std::atomic<double> short_elapsed{0.0};
  std::thread short_call([&] {
    const double start = now_seconds();
    auto reply = channel.value()->call(kEchoReq, make_payload(1, /*sleep_s=*/2.5), 1.0);
    short_elapsed = now_seconds() - start;
    ASSERT_FALSE(reply.ok());
    EXPECT_EQ(reply.error().code, ErrorCode::kTimeout);
  });
  sleep_seconds(0.05);
  auto bulk = channel.value()->call(kEchoReq, make_payload(2, 0.0, kBulk), 10.0);
  short_call.join();

  ASSERT_TRUE(bulk.ok()) << bulk.error().to_string();
  EXPECT_EQ(payload_id(bulk.value().payload), 2u);
  EXPECT_EQ(bulk.value().payload, make_payload(2, 0.0, kBulk)) << "resumed frame damaged";
  EXPECT_LT(short_elapsed.load(), 1.3) << "reader overran its deadline by the bulk transfer";
  EXPECT_TRUE(channel.value()->healthy());
}

// A timed-out mux call deregisters its waiter; the late reply is read and
// discarded whole by the next reader, so the channel keeps serving later
// calls on the same socket (no poisoning, no eviction).
TEST(MuxTest, LateReplyAfterTimeoutIsDiscardedChannelSurvives) {
  EchoServer server;
  auto& pool = ConnectionPool::instance();
  pool.clear();

  auto channel = pool.channel(server.endpoint(), 2.0);
  ASSERT_TRUE(channel.ok());
  auto late = channel.value()->call(kEchoReq, make_payload(1, /*sleep_s=*/0.3),
                                    /*timeout_s=*/0.05);
  ASSERT_FALSE(late.ok());
  EXPECT_EQ(late.error().code, ErrorCode::kTimeout);

  sleep_seconds(0.4);  // the late reply lands and must be dropped whole
  EXPECT_TRUE(channel.value()->healthy());
  auto after = channel.value()->call(kEchoReq, make_payload(2), 5.0);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(payload_id(after.value().payload), 2u);
}

// Satellite regression: connection reuse survives arm_fault mid-stream
// resets — the poisoned channel is evicted and the next call redials.
TEST(MuxTest, MidStreamResetEvictsChannelAndRedials) {
  EchoServer server;
  auto& pool = ConnectionPool::instance();
  pool.clear();
  const std::uint64_t evicted_before = metrics::counter("net.mux.evicted_total").value();
  const std::uint64_t poisoned_before = metrics::counter("net.mux.poisoned_total").value();

  auto first = pool.channel(server.endpoint(), 2.0);
  ASSERT_TRUE(first.ok());
  auto warm = first.value()->call(kEchoReq, make_payload(1), 5.0);
  ASSERT_TRUE(warm.ok());

  // One reset: the send tears the stream mid-frame and the channel poisons.
  FaultPlan plan = FaultPlan::single(FaultMode::kReset, 1.0);
  plan.rules[0].max_triggers = 1;
  FaultInjector::instance().arm(server.endpoint(), plan);
  auto reset = first.value()->call(kEchoReq, make_payload(2), 5.0);
  ASSERT_FALSE(reset.ok());
  EXPECT_TRUE(is_retryable(reset.error().code)) << reset.error().to_string();
  EXPECT_FALSE(first.value()->healthy());
  EXPECT_GT(metrics::counter("net.mux.poisoned_total").value(), poisoned_before);
  FaultInjector::instance().disarm_all();

  // Next channel() evicts the poisoned one and redials.
  auto second = pool.channel(server.endpoint(), 2.0);
  ASSERT_TRUE(second.ok());
  EXPECT_NE(second.value().get(), first.value().get());
  EXPECT_GT(metrics::counter("net.mux.evicted_total").value(), evicted_before);
  auto after = second.value()->call(kEchoReq, make_payload(3), 5.0);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(payload_id(after.value().payload), 3u);
}

// Callers read their own replies: fanning out to many endpoints costs a few
// cached sockets per endpoint and no thread per endpoint.
TEST(MuxTest, FanOutToManyEndpointsAddsNoThreads) {
  constexpr int kEndpoints = 32;
  constexpr int kCallers = 4;
  ReactorConfig config;
  config.workers = 1;
  config.max_workers = 1;
  config.inline_handlers = true;
  std::vector<std::unique_ptr<EchoServer>> servers;
  for (int i = 0; i < kEndpoints; ++i) servers.push_back(std::make_unique<EchoServer>(config));
  ConnectionPool::instance().clear();

  const int before = thread_count();
  ASSERT_GT(before, 0);
  std::atomic<int> ok_count{0};
  std::vector<std::thread> callers;
  for (int c = 0; c < kCallers; ++c) {
    callers.emplace_back([&, c] {
      for (int i = 0; i < kEndpoints; ++i) {
        const auto tag = static_cast<std::uint64_t>(c * kEndpoints + i + 1);
        auto reply = call(servers[static_cast<std::size_t>((i + c) % kEndpoints)]->endpoint(),
                          kEchoReq, make_payload(tag), 5.0, 2.0);
        if (reply.ok() && payload_id(reply.value().payload) == tag) ok_count.fetch_add(1);
      }
    });
  }
  for (auto& t : callers) t.join();
  const int after = thread_count();

  EXPECT_EQ(ok_count.load(), kCallers * kEndpoints);
  EXPECT_LE(after, before) << "channels started " << (after - before) << " threads for "
                           << kEndpoints << " endpoints";
  for (const auto& server : servers) {
    EXPECT_LE(server->reactor().connection_count(), static_cast<std::size_t>(kCallers));
  }
}

}  // namespace
}  // namespace ns::net
