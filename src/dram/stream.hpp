/// \file stream.hpp
/// Pull-based request stream interface between the interleaver layer and
/// the memory controller. Streams generate addresses on the fly, so a
/// 12.5 M-element interleaver phase never materializes in memory.
#pragma once

#include <cstddef>
#include <vector>

#include "dram/types.hpp"

namespace tbi::dram {

class RequestStream {
 public:
  virtual ~RequestStream() = default;

  /// Produce the next request; returns false at end of stream.
  virtual bool next(Request& out) = 0;

  /// Produce up to \p max (> 0) requests into \p out, the same sequence
  /// next() yields; returns how many, 0 only at end of stream. Streams
  /// that generate addresses override it to fill a run per virtual call.
  virtual std::size_t next_batch(Request* out, std::size_t max) {
    std::size_t n = 0;
    while (n < max && next(out[n])) ++n;
    return n;
  }
};

/// Fixed request sequence, mostly for tests.
class VectorStream final : public RequestStream {
 public:
  explicit VectorStream(std::vector<Request> requests)
      : requests_(std::move(requests)) {}

  bool next(Request& out) override {
    if (pos_ >= requests_.size()) return false;
    out = requests_[pos_++];
    return true;
  }

 private:
  std::vector<Request> requests_;
  std::size_t pos_ = 0;
};

}  // namespace tbi::dram
