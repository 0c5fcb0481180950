// Structure-of-arrays batch workspace for multi-trial DSP pipelines.
//
// A batched sweep processes B independent realizations of the same frame
// (the mesh's one-frame-per-sensor channel sweep): the waveform is one row
// per realization, and every channel stage sweeps all rows before the next
// stage runs (stage-major order). The rows live in one contiguous
// rows x stride allocation so the sweep is a single linear pass —
// cache-friendly and free of per-row allocations. BatchBuffer is designed
// to be kept thread_local by hot loops (reset() only reallocates when the
// batch outgrows the old one).
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "dsp/require.h"
#include "dsp/types.h"

namespace ctc::dsp {

/// Owning SoA batch storage. reset() reshapes without shrinking the
/// underlying allocation, so a thread_local BatchBuffer reaches a steady
/// state with zero allocations per batch.
class BatchBuffer {
 public:
  /// Reshapes to rows x stride. Contents are unspecified afterwards
  /// (callers fill every row they read).
  void reset(std::size_t rows, std::size_t stride) {
    rows_ = rows;
    stride_ = stride;
    storage_.resize(rows * stride);
  }

  std::size_t rows() const { return rows_; }
  std::size_t stride() const { return stride_; }

  std::span<cplx> row(std::size_t r) {
    CTC_REQUIRE(r < rows_);
    return {storage_.data() + r * stride_, stride_};
  }
  std::span<const cplx> row(std::size_t r) const {
    CTC_REQUIRE(r < rows_);
    return {storage_.data() + r * stride_, stride_};
  }

 private:
  std::vector<cplx> storage_;
  std::size_t rows_ = 0;
  std::size_t stride_ = 0;
};

}  // namespace ctc::dsp
