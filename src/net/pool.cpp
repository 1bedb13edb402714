#include "net/pool.hpp"

#include <errno.h>
#include <sys/socket.h>

#include <algorithm>

#include "common/metrics.hpp"
#include "net/fault.hpp"

namespace ns::net {

namespace {

/// Mid-frame silence longer than this poisons a channel. Legitimate gaps
/// inside one frame are pacing gaps (≤ 64 KiB / bandwidth, milliseconds on
/// the shaped profiles) — compute time happens *before* a reply frame
/// starts, never in the middle of one. A stall fault is exactly mid-frame
/// silence, and one second bounds how long it can poison a shared channel.
constexpr double kMidFrameProgressTimeout = 1.0;

}  // namespace

// ---- ConnectionPool ----

ConnectionPool& ConnectionPool::instance() {
  // Deliberately leaked: detached client threads (dropped netsl_nb handles,
  // losing hedges) may still call through the pool while static destructors
  // run.
  static ConnectionPool* pool = new ConnectionPool();
  return *pool;
}

Status ConnectionPool::check_busy_window(const std::string& key) {
  std::lock_guard lock(mu_);
  auto it = busy_until_.find(key);
  if (it == busy_until_.end()) return ok_status();
  if (now_seconds() >= it->second) {
    busy_until_.erase(it);
    return ok_status();
  }
  metrics::counter("net.pool.busy_fastfail_total").inc();
  // Retryable like an application-level overload shed: the caller's backoff
  // loop absorbs it, and — same as kServerOverloaded from the admission
  // queue — it must never be failure-reported against a healthy server.
  return make_error(ErrorCode::kServerOverloaded, "endpoint in transport busy window");
}

void ConnectionPool::note_busy(const Endpoint& remote, double retry_after_s) {
  metrics::counter("net.pool.busy_noted_total").inc();
  std::lock_guard lock(mu_);
  auto& until = busy_until_[remote.to_string()];
  until = std::max(until, now_seconds() + std::max(0.0, retry_after_s));
}

Result<MuxChannelPtr> ConnectionPool::channel(const Endpoint& remote, double dial_timeout_s) {
  // The pool is a dial cache: an armed connect fault fires whether or not a
  // warm channel exists, so chaos scripts see identical failure surfaces.
  if (FaultInjector::instance().armed()) {
    NS_RETURN_IF_ERROR(FaultInjector::instance().on_connect(remote));
  }
  const std::string key = remote.to_string();
  NS_RETURN_IF_ERROR(check_busy_window(key));
  {
    std::lock_guard lock(mu_);
    auto& cached = channels_[key];
    MuxChannelPtr least;
    std::size_t least_load = 0;
    for (auto it = cached.begin(); it != cached.end();) {
      const auto load = (*it)->load_if_reusable();
      if (!load) {
        it = cached.erase(it);  // poisoned, retired or stale: never handed out
        metrics::counter("net.mux.evicted_total").inc();
        continue;
      }
      if (*load == 0) {
        metrics::counter("net.pool.hits_total").inc();
        return *it;
      }
      if (!least || *load < least_load) {
        least = *it;
        least_load = *load;
      }
      ++it;
    }
    if (cached.size() >= kChannelsPerEndpoint) {
      metrics::counter("net.pool.hits_total").inc();
      return least;
    }
  }
  metrics::counter("net.pool.misses_total").inc();
  // on_connect already consulted above; dial raw (connect() would roll the
  // fault a second time for one logical dial).
  auto conn = TcpConnection::connect_raw(remote, dial_timeout_s);
  if (!conn.ok()) return conn.error();
  auto channel = MuxChannelPtr(new MuxChannel(std::move(conn.value()), remote));
  std::lock_guard lock(mu_);
  // Racing dials may overshoot the cap; the extra channel serves its caller
  // and closes when dropped.
  auto& cached = channels_[key];
  if (cached.size() < kChannelsPerEndpoint) cached.push_back(channel);
  return channel;
}

void ConnectionPool::evict(const Endpoint& remote) {
  std::lock_guard lock(mu_);
  channels_.erase(remote.to_string());
  busy_until_.erase(remote.to_string());
}

void ConnectionPool::clear() {
  std::lock_guard lock(mu_);
  channels_.clear();
  busy_until_.clear();
}

// ---- MuxChannel ----

MuxChannel::MuxChannel(TcpConnection conn, Endpoint remote)
    : conn_(std::move(conn)), remote_(std::move(remote)), last_used_(now_seconds()) {}

bool MuxChannel::healthy() const {
  std::lock_guard lock(mu_);
  return !dead_ && !retired_;
}

std::optional<std::size_t> MuxChannel::load_if_reusable() {
  std::lock_guard lock(mu_);
  if (dead_ || retired_) return std::nullopt;
  if (reading_ || !waiters_.empty()) {
    return std::max<std::size_t>(waiters_.size(), 1);  // calls in flight: live
  }
  if (!reader_.mid_frame() && now_seconds() - last_used_ <= kChannelIdleLimit) {
    // Silent and open is the only reusable idle state. A pending EOF means
    // the peer closed the socket (restart, idle sweep, LRU eviction);
    // pending bytes are a reply nobody waits for any more.
    std::uint8_t byte = 0;
    const ssize_t n = ::recv(conn_.native_handle(), &byte, 1, MSG_PEEK | MSG_DONTWAIT);
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return 0;
  }
  retired_ = true;
  return std::nullopt;
}

void MuxChannel::poison(const Error& why) {
  std::lock_guard lock(mu_);
  poison_locked(why);
}

void MuxChannel::poison_locked(const Error& why) {
  if (dead_) return;
  dead_ = true;
  death_ = why;
  // Wake a caller blocked reading without freeing the fd: the descriptor
  // number must never be recycled under it (the destructor closes it).
  conn_.shutdown_both();
  for (const auto& [id, waiter] : waiters_) waiter->cv.notify_one();
  metrics::counter("net.mux.poisoned_total").inc();
}

Status MuxChannel::send(std::uint16_t type, const serial::Bytes& payload, std::uint64_t id,
                        const LinkShape& shape) {
  bool stalled = false;
  Status sent = ok_status();
  {
    // Serialize senders: frames must hit the stream whole. Fault plans and
    // shaping apply exactly as on a dedicated connection.
    std::lock_guard lock(send_mu_);
    sent = send_message(conn_, type, payload, shape, id, &stalled);
  }
  if (!sent.ok()) {
    // A send-side failure (injected reset, peer gone) leaves the stream in
    // an unknown state: poison so every sharer redials.
    poison(sent.error());
  } else if (stalled) {
    // Half a frame is in the stream; any frame sent after it would be
    // misread by the peer. Calls in flight may still get their replies.
    std::lock_guard lock(mu_);
    retired_ = true;
  }
  return sent;
}

Status MuxChannel::post(std::uint16_t type, const serial::Bytes& payload) {
  {
    std::lock_guard lock(mu_);
    if (dead_) return death_;
    if (retired_) return make_error(ErrorCode::kConnectionClosed, "mux channel retired");
    last_used_ = now_seconds();
  }
  return send(type, payload, /*id=*/0, LinkShape::unshaped());
}

Result<Message> MuxChannel::call(std::uint16_t type, const serial::Bytes& payload,
                                 double timeout_s, const LinkShape& shape) {
  const Deadline deadline(timeout_s);
  Waiter self;
  std::uint64_t id = 0;
  {
    std::lock_guard lock(mu_);
    if (dead_) return death_;
    if (retired_) return make_error(ErrorCode::kConnectionClosed, "mux channel retired");
    id = next_id_++;
    waiters_.emplace(id, &self);
    last_used_ = now_seconds();
  }
  const Status sent = send(type, payload, id, shape);

  std::unique_lock lock(mu_);
  if (!sent.ok()) {
    waiters_.erase(id);
    return sent.error();
  }
  while (!self.done) {
    if (dead_ || deadline.expired()) {
      waiters_.erase(id);
      last_used_ = now_seconds();
      if (dead_) return death_;
      wake_next_reader_locked();  // a hand-off may have been aimed at us
      return make_error(ErrorCode::kTimeout, "mux call timed out");
    }
    if (reading_) {
      // Another caller is reading; it hands over our reply or the role.
      self.blocked = true;
      self.cv.wait_for(lock, std::chrono::duration<double>(deadline.remaining()));
      self.blocked = false;
      continue;
    }
    reading_ = true;
    lock.unlock();
    const Status read = read_until(self, deadline);
    lock.lock();
    reading_ = false;
    if (!read.ok()) {
      poison_locked(read.error());
      continue;
    }
    wake_next_reader_locked();
  }
  last_used_ = now_seconds();
  return std::move(self.reply);
}

void MuxChannel::wake_next_reader_locked() {
  if (reading_) return;
  // Only a caller asleep on its cv can take the role now. One still in
  // send() finds the role free when it next takes mu_ and claims it itself.
  for (const auto& [id, waiter] : waiters_) {
    if (!waiter->blocked) continue;
    waiter->cv.notify_one();
    return;
  }
}

Status MuxChannel::read_until(const Waiter& self, const Deadline& deadline) {
  for (;;) {
    if (!reader_.mid_frame()) {
      const double remaining = deadline.remaining();
      if (remaining <= 0.0) return ok_status();
      auto readable = conn_.wait_readable(remaining);
      if (!readable.ok()) {
        if (readable.error().code == ErrorCode::kTimeout) return ok_status();
        return readable.error();
      }
    }
    // Read the frame, whoever it belongs to, 64 KiB at a time. A paced frame
    // may take arbitrarily long; only silence mid-frame is fatal. Once our
    // own deadline passes, stop at the next step and leave the rest of the
    // frame to whoever reads next.
    auto msg = reader_.read(conn_, kMidFrameProgressTimeout, deadline);
    if (!msg.ok()) return msg.error();
    if (!msg.value()) return ok_status();
    if (msg.value()->type == kTransportBusyType) {
      // Accept-governor shed, delivered just before the peer closed on us:
      // note the busy window so redials back off, and fail every pending
      // call retryably (overload, not server failure).
      ConnectionPool::instance().note_busy(remote_,
                                           decode_busy_retry_after(msg.value()->payload));
      return make_error(ErrorCode::kServerOverloaded, "transport busy (accept shed)");
    }
    if (deliver(std::move(*msg.value()), &self)) return ok_status();
  }
}

bool MuxChannel::deliver(Message&& msg, const Waiter* self) {
  std::lock_guard lock(mu_);
  auto it = waiters_.find(msg.id);
  // No waiter (its deadline already passed): the frame was consumed whole
  // and is dropped — nothing leaks into the next caller's reply.
  if (it == waiters_.end()) return false;
  Waiter* waiter = it->second;
  waiters_.erase(it);
  waiter->reply = std::move(msg);
  waiter->done = true;
  if (waiter == self) return true;
  waiter->cv.notify_one();
  return false;
}

// ---- helpers ----

Result<Message> call(const Endpoint& remote, std::uint16_t type, const serial::Bytes& payload,
                     double timeout_s, double dial_timeout_s, const LinkShape& shape) {
  auto channel = ConnectionPool::instance().channel(remote, dial_timeout_s);
  if (!channel.ok()) return channel.error();
  return channel.value()->call(type, payload, timeout_s, shape);
}

Status post(const Endpoint& remote, std::uint16_t type, const serial::Bytes& payload,
            double dial_timeout_s) {
  auto channel = ConnectionPool::instance().channel(remote, dial_timeout_s);
  if (!channel.ok()) return channel.error();
  return channel.value()->post(type, payload);
}

}  // namespace ns::net
