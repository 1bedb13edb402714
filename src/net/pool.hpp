// Client-side transport: a few shared, pipelining channels per endpoint.
//
// Every outbound exchange in the system — netsl solves and cancels, agent
// queries and reports, server registrations, workload reports, agent pings,
// federation syncs, checkpoint replication and job migration — rides a
// MuxChannel that the process-global ConnectionPool keeps for the endpoint:
//
//   ConnectionPool::channel()  a cached channel, dialed on miss. An idle
//                              channel (no call in flight) is preferred; if
//                              every cached one is busy and fewer than
//                              kChannelsPerEndpoint exist, a new one is
//                              dialed, else the least-loaded is shared. So
//                              concurrent callers mostly read their own
//                              sockets, and beyond the cap they pipeline.
//                              An idle channel is handed out only while it
//                              is fresh: one idle longer than
//                              kChannelIdleLimit (below the reactors' 10 s
//                              idle sweep), or whose socket shows EOF or
//                              stray bytes to an MSG_PEEK, is retired and
//                              redialed. Otherwise a request sent into a
//                              socket the peer already closed would fail and
//                              be blamed on a healthy server or agent.
//
//   MuxChannel::call()         send a request frame under a fresh frame id
//                              and wait for the reply frame carrying that id.
//                              Concurrent calls pipeline over one socket.
//   MuxChannel::post()         send a frame under id 0; no reply comes.
//
// No thread of its own reads a channel. A waiting caller takes the read role
// if nobody holds it, reads frames and hands each to the caller whose id it
// carries; when its own reply arrives or its deadline passes it gives the
// role up and wakes a caller asleep on its reply to take it over. A reader
// whose deadline passes in the middle of someone else's frame stops at the
// next 64 KiB step and leaves the rest of the frame to the next reader, so
// it overruns its own deadline by at most one step (bounded by the 1 s
// mid-frame progress limit). A reply no caller waits for any more is read
// whole and dropped, so the stream stays framed. Client threads are
// therefore O(1) in the number of endpoints.
//
// A transport-level error (reset, CRC damage, a reply that goes silent
// mid-frame, a BUSY shed) poisons the channel: every waiter fails retryably
// and the next channel() redials. A request whose own send stalled midway
// retires the channel instead: calls already in flight finish, new calls
// redial.
//
// Fault-injection parity: channel() consults FaultInjector::on_connect even
// on a warm hit (the pool is a dial cache — an armed connect fault must fire
// whether or not a warm channel exists), and every send goes through
// net::send_message, so per-frame fault plans and link shaping behave exactly
// as they do on fresh dials.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <unordered_map>
#include <vector>

#include "common/clock.hpp"
#include "common/error.hpp"
#include "net/endpoint.hpp"
#include "net/shaped_link.hpp"
#include "net/socket.hpp"
#include "net/transport.hpp"

namespace ns::net {

/// A channel idle this long is retired rather than reused. Comfortably below
/// the server and agent reactors' idle sweep, so the client drops a quiet
/// socket before the peer does.
inline constexpr double kChannelIdleLimit = 2.5;

/// Channels kept per endpoint. Up to this many concurrent callers each get a
/// socket of their own and read their replies straight off it; more share
/// the least-loaded channel, so sockets per endpoint stay bounded.
inline constexpr std::size_t kChannelsPerEndpoint = 4;

/// One pipelined connection to one endpoint, shared by concurrent callers.
class MuxChannel {
 public:
  /// Send a request and wait up to `timeout_s` for the reply carrying its
  /// frame id. On timeout the caller just deregisters; its late reply is
  /// read and dropped whole by whoever reads next. Transport errors poison
  /// the channel (every waiter fails; callers redial through the pool).
  Result<Message> call(std::uint16_t type, const serial::Bytes& payload, double timeout_s,
                       const LinkShape& shape = LinkShape::unshaped());

  /// Send a message the peer does not answer (frame id 0).
  Status post(std::uint16_t type, const serial::Bytes& payload);

  /// False once poisoned or retired: channel() will not hand it out again.
  bool healthy() const;

 private:
  friend class ConnectionPool;
  MuxChannel(TcpConnection conn, Endpoint remote);

  struct Waiter {
    std::condition_variable cv;
    bool done = false;
    bool blocked = false;  // asleep on cv: only such a waiter can take over the read role
    Message reply;
  };

  /// Frame and send one message; poisons on failure, retires on a stall.
  Status send(std::uint16_t type, const serial::Bytes& payload, std::uint64_t id,
              const LinkShape& shape);
  /// Hold the read role until `self` has its reply or `deadline` passes.
  Status read_until(const Waiter& self, const Deadline& deadline);
  /// Hand a frame to the caller waiting on its id (or drop it). True if that
  /// caller is `self`.
  bool deliver(Message&& msg, const Waiter* self);
  /// If nobody holds the read role, wake a caller asleep on its reply to
  /// take it. A caller still sending takes the role itself afterwards.
  void wake_next_reader_locked();
  /// Calls in flight, or nullopt if channel() must not hand this channel out
  /// again: poisoned, retired, or stale by the staleness rule.
  std::optional<std::size_t> load_if_reusable();
  void poison(const Error& why);
  void poison_locked(const Error& why);

  TcpConnection conn_;
  Endpoint remote_;
  std::mutex send_mu_;
  FrameReader reader_;  // owned by whoever holds the read role

  mutable std::mutex mu_;
  std::unordered_map<std::uint64_t, Waiter*> waiters_;
  std::uint64_t next_id_ = 1;  // 0 is reserved for posts
  bool reading_ = false;       // some caller holds the read role
  bool retired_ = false;
  bool dead_ = false;
  Error death_;
  double last_used_ = 0.0;
};

using MuxChannelPtr = std::shared_ptr<MuxChannel>;

class ConnectionPool {
 public:
  /// Process-wide pool (clients, servers and agents in one test process all
  /// share it; endpoints keep their traffic apart).
  static ConnectionPool& instance();

  /// Channel to `remote`: a fresh idle one if cached, else a new dial while
  /// fewer than kChannelsPerEndpoint are cached, else the least-loaded one.
  /// Counts net.pool.hits_total / net.pool.misses_total.
  Result<MuxChannelPtr> channel(const Endpoint& remote, double dial_timeout_s);

  /// Record a transport-level BUSY from `remote`: until `retry_after_s`
  /// elapses, channel() to it fails fast with a retryable kServerOverloaded
  /// instead of dialing into a shedding accept governor.
  void note_busy(const Endpoint& remote, double retry_after_s);

  /// Drop the channels and busy window for `remote` (or all).
  void evict(const Endpoint& remote);
  void clear();

 private:
  /// Fails fast (retryable) while `key` is inside a noted busy window.
  Status check_busy_window(const std::string& key);

  mutable std::mutex mu_;
  std::map<std::string, std::vector<MuxChannelPtr>> channels_;
  /// Endpoint -> monotonic instant until which dials fail fast (transport
  /// BUSY honoring). Cleared with evict()/clear() so a restarted test
  /// cluster is immediately reachable again.
  std::map<std::string, double> busy_until_;
};

/// One request/reply exchange with `remote` over a pooled channel.
Result<Message> call(const Endpoint& remote, std::uint16_t type, const serial::Bytes& payload,
                     double timeout_s, double dial_timeout_s,
                     const LinkShape& shape = LinkShape::unshaped());

/// One message to `remote` that expects no reply, over a pooled channel.
Status post(const Endpoint& remote, std::uint16_t type, const serial::Bytes& payload,
            double dial_timeout_s);

}  // namespace ns::net
