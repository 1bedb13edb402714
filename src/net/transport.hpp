// Framed message transport: one NetSolve protocol message per frame.
#pragma once

#include <cstdint>
#include <optional>

#include "common/clock.hpp"
#include "common/error.hpp"
#include "net/shaped_link.hpp"
#include "net/socket.hpp"
#include "serial/codec.hpp"
#include "serial/frame.hpp"

namespace ns::net {

struct Message {
  std::uint16_t type = 0;
  /// Frame correlation id: a reply echoes its request's id (0 = none).
  std::uint64_t id = 0;
  serial::Bytes payload;
};

/// Transport-level backpressure frame. When a reactor's accept governor
/// sheds a dial (connection cap reached with nothing evictable, or buffer
/// budgets hot) it writes this one frame and closes — a peer that speaks the
/// protocol learns it was load-shed (not that the host died) and gets a
/// retry-after hint. Deliberately outside the proto::MessageType range: the
/// frame belongs to the transport, not the application.
inline constexpr std::uint16_t kTransportBusyType = 0xFFF0;

/// Payload for kTransportBusyType: a single f64, seconds to back off.
serial::Bytes encode_busy_payload(double retry_after_s);

/// Parse a kTransportBusyType payload; malformed payloads yield `fallback`.
double decode_busy_retry_after(const serial::Bytes& payload, double fallback = 0.25);

/// Client-role frame cap: the largest payload a reply may claim before the
/// client buffers a byte of it. Servers already enforce a per-role cap at
/// their reactor (GuardConfig::max_frame_bytes); this is the mirror for the
/// dial-out side, where a hostile or corrupted peer could otherwise make a
/// client allocate up to the 1 GiB absolute frame limit from a 16-byte
/// header. Large enough for any legitimate result matrix, small enough that
/// one bad header cannot take out the process.
inline constexpr std::size_t kClientMaxFrameBytes = 256u << 20;  // 256 MiB

/// Serialize `payload` under `type` and correlation `id` and send it as one
/// frame, shaped. An injected stall writes part of the frame and still
/// succeeds (the peer's read timeout is what surfaces it); `stalled`, when
/// given, is set so a caller sharing the stream knows it is torn.
Status send_message(TcpConnection& conn, std::uint16_t type, const serial::Bytes& payload,
                    const LinkShape& shape = LinkShape::unshaped(), std::uint64_t id = 0,
                    bool* stalled = nullptr);

/// Reads one frame in steps: the header, then 64 KiB of payload at a time.
/// A reader may stop between steps and a later read() resumes the same
/// frame, so callers sharing a stream can pass a half-read frame between
/// them. Validates magic, version, size and CRC. A failed read leaves the
/// stream unusable; the reader must not be used again.
class FrameReader {
 public:
  /// Read until the frame is whole (returned) or `stop` has passed at a step
  /// boundary (nullopt: the frame is kept for the next read()).
  /// `timeout_secs` bounds the wait for the header and for each step, so a
  /// long frame on a paced link completes while one that goes silent fails.
  /// Payloads over `max_payload` are rejected at header-decode time
  /// (counted in net.guard.oversized_total) before any buffering.
  Result<std::optional<Message>> read(TcpConnection& conn, double timeout_secs,
                                      const Deadline& stop,
                                      std::size_t max_payload = kClientMaxFrameBytes);

  /// True once a header has been read and until its frame is whole.
  bool mid_frame() const noexcept { return mid_frame_; }

 private:
  bool mid_frame_ = false;
  serial::FrameHeader header_{};
  Message msg_;
  std::size_t got_ = 0;
};

/// Receive one complete frame: a FrameReader run to completion.
Result<Message> recv_message(TcpConnection& conn, double timeout_secs,
                             std::size_t max_payload = kClientMaxFrameBytes);

}  // namespace ns::net
