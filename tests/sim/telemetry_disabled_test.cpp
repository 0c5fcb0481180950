// Compile-time gating: with CTC_TELEMETRY_DISABLED defined (here, before
// any include) the CTC_TELEM_* macros must vanish — no recording even when
// the runtime switch is on, and no evaluation of their argument
// expressions. This TU is the build proof that production code can compile
// the instrumentation away entirely.
#define CTC_TELEMETRY_DISABLED

#include "sim/telemetry.h"

#include <gtest/gtest.h>

namespace ctc::sim::telemetry {
namespace {

TEST(TelemetryDisabledTest, MacrosRecordNothingEvenWhenRuntimeEnabled) {
  set_enabled(true);
  reset();
  CTC_TELEM_COUNT("disabled", "count", 5);
  CTC_TELEM_GAUGE("disabled", "gauge", 1.25);
  CTC_TELEM_HISTO("disabled", "histo", 9);
  { CTC_TELEM_TIMER("disabled", "span"); }
  std::uint64_t carry = 0;
  { CTC_TELEM_LAP(carry); }
  { CTC_TELEM_TIMER("disabled", "carried_span", carry); }
  EXPECT_EQ(carry, 0u);
  EXPECT_TRUE(collect().empty());
  reset();
  set_enabled(false);
}

TEST(TelemetryDisabledTest, ArgumentExpressionsAreNotEvaluated) {
  set_enabled(true);
  int evaluations = 0;
  CTC_TELEM_COUNT("disabled", "count", ++evaluations);
  CTC_TELEM_GAUGE("disabled", "gauge", ++evaluations);
  CTC_TELEM_HISTO("disabled", "histo", ++evaluations);
  EXPECT_EQ(evaluations, 0);  // (void)sizeof type-checks but never runs
  reset();
  set_enabled(false);
}

}  // namespace
}  // namespace ctc::sim::telemetry
