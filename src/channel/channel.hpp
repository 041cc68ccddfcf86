/// \file channel.hpp
/// Symbol-error channel model interface.
///
/// The paper motivates triangular interleaving with the optical LEO
/// downlink: long coherence time (> 2 ms) means errors arrive in very
/// long bursts. Real downlink traces are proprietary, so these synthetic
/// models reproduce the relevant statistics (DESIGN.md §5): a memoryless
/// BSC as control, a Gilbert-Elliott two-state burst channel, and a
/// correlated-fading LEO model with configurable coherence time.
///
/// Every channel is a deterministic state machine over a *wire position*
/// counter: symbol i of the stream is corrupted by a fixed function of
/// (parameters, RNG seed, the i-1 symbols before it), and a corruption is
/// a non-zero XOR flip drawn independently of the symbol's value. So the
/// channel's whole effect on a stream is its list of (wire position,
/// flip) events, and the one primitive a subclass implements, advance(),
/// emits exactly that list to an EventSink. Everything else is a thin
/// sink over it: apply_range() XORs the events into a buffer, skip()
/// discards them while consuming the identical RNG draws — the
/// deterministic skip-ahead behind events() and apply_range(), which lets
/// a fresh channel fast-forward to any wire position and continue
/// byte-identically to a sequential walk. The FER pipeline walks one
/// channel forward per cell (source::ErrorSource, src/source/).
///
/// Clean stretches cost no per-symbol draws. The BSC draws the geometric
/// gap to its next error, Gilbert-Elliott draws each good-state sojourn in
/// one go and walks only its fades, and LEO draws one power sample per
/// window and walks only faded windows. Each carries its pending event (or sample
/// phase) across calls, so a walk or a skip costs O(events), not
/// O(symbols), and a split walk draws exactly what one pass draws.
///
/// One seed yields the same events for as long as a model's draws stay
/// unchanged. A change to any model's draws changes the FER records, so
/// it regenerates BENCH_FER.json and BENCH_FER_PAPER.json.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <type_traits>

#include "common/rng.hpp"

namespace tbi::channel {

/// One corruption event on the wire stream.
struct Corruption {
  std::uint64_t wire_pos = 0;  ///< absolute wire position (symbol index)
  std::uint8_t flip = 0;       ///< non-zero XOR mask applied to the symbol
};

inline bool operator==(const Corruption& a, const Corruption& b) {
  return a.wire_pos == b.wire_pos && a.flip == b.flip;
}

/// Non-owning reference to a `void(const Corruption&)` callable.
///
/// Events flow channel -> source -> pipeline through this instead of
/// std::function so the per-frame hot path never allocates (a capturing
/// lambda bigger than the std::function small-buffer would heap-allocate
/// every frame and break the zero-steady-allocation invariant). The
/// referenced callable must outlive the call it is passed to, which
/// always holds for the call-site lambdas used here.
class EventSink {
 public:
  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::remove_cvref_t<F>, EventSink>>>
  EventSink(F&& f)  // NOLINT: implicit by design, mirrors function_ref
      : obj_(const_cast<void*>(static_cast<const void*>(std::addressof(f)))),
        call_([](void* obj, const Corruption& e) {
          (*static_cast<std::remove_reference_t<F>*>(obj))(e);
        }) {}

  void operator()(const Corruption& e) const { call_(obj_, e); }

 private:
  void* obj_;
  void (*call_)(void*, const Corruption&);
};

class Channel {
 public:
  virtual ~Channel() = default;

  /// Counter-based random access: emit one event per corrupted symbol of
  /// the wire range [start, start + span) into \p sink, in increasing
  /// wire position, and return the event count. Requires
  /// start >= position() (the channel only runs forward; rewind by
  /// constructing a fresh instance and reseeding the RNG); the gap is
  /// crossed with skip(). Splitting a stream into ranges at any
  /// boundaries emits exactly the events of one call over the whole
  /// stream (tested property).
  std::uint64_t events(std::uint64_t start, std::uint64_t span, Rng& rng,
                       EventSink sink);

  /// Fast-forward the channel over \p span symbols, discarding their
  /// events: consumes exactly the RNG draws events() would, so a
  /// subsequent call continues byte-identically to an uninterrupted
  /// sequential walk. Costs O(events) for every model (see the file
  /// comment).
  void skip(std::uint64_t span, Rng& rng);

  /// events() XORed into \p symbols, which stand for the wire range
  /// [start, start + symbols.size()): a corrupted symbol is XORed with a
  /// non-zero random value, so it is guaranteed to differ. Returns the
  /// number of corrupted symbols. apply_range(position(), ...) corrupts
  /// the next symbols.size() symbols of a sequential walk.
  std::uint64_t apply_range(std::uint64_t start, std::span<std::uint8_t> symbols,
                            Rng& rng);

  /// Wire position of the next symbol events()/apply_range()/skip() will
  /// consume.
  std::uint64_t position() const { return position_; }

  virtual const char* name() const = 0;

 protected:
  /// The one subclass primitive: walk \p span symbols of the wire, the
  /// first at wire position \p start, and emit each corrupted symbol's
  /// (wire position, flip) into \p sink in increasing position. The
  /// draws must not depend on the sink. Returns the number of events.
  virtual std::uint64_t advance(std::uint64_t start, std::uint64_t span, Rng& rng,
                                EventSink sink) = 0;

 private:
  std::uint64_t position_ = 0;
};

/// Wire position \p gap symbols past \p pos, saturating at Rng::kNever
/// (the gap of a p = 0 event never ends).
inline std::uint64_t gap_end(std::uint64_t pos, std::uint64_t gap) {
  return gap < Rng::kNever - pos ? pos + gap : Rng::kNever;
}

/// Random non-zero flip mask confined to the low \p bits.
inline std::uint8_t corrupt_flip(unsigned bits, Rng& rng) {
  const std::uint64_t mask = (bits >= 8) ? 0xFF : ((1u << bits) - 1);
  std::uint8_t flip = 0;
  while (flip == 0) flip = static_cast<std::uint8_t>(rng.next_u64() & mask);
  return flip;
}

/// Corrupt one symbol, guaranteeing a change in its low \p bits.
inline void corrupt_symbol(std::uint8_t& sym, unsigned bits, Rng& rng) {
  sym ^= corrupt_flip(bits, rng);
}

}  // namespace tbi::channel
