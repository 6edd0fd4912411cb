// The MIL texts the service workloads submit. The benchmark carries its
// own texts instead of printing the rewriter's translations: the printer
// writes date literals bare, and ParseMil reads `1994-01-01` back as three
// integers, so the printed Q1/Q3/Q6/Q10 are vetoed by the analyzer.
#ifndef PERFBENCH_TEXTS_H_
#define PERFBENCH_TEXTS_H_

#include <string>
#include <vector>

#include "bench.h"
#include "mil/interpreter.h"
#include "tpcd/generator.h"
#include "tpcd/loader.h"

namespace perfbench {

enum class ReqClass { kShort = 0, kMedium = 1, kLong = 2 };
inline const char* ClassName(ReqClass c) {
  return c == ReqClass::kShort ? "short"
         : c == ReqClass::kMedium ? "medium"
                                  : "long";
}

std::string ClerkName(int clerk);

/// Sum of Item_extendedprice over one clerk's orders:
/// select + join + semijoin + sum. Result variable "total".
std::string ShortText(const std::string& clerk);
/// The Fig. 10 Q13 loss program for one clerk. Result variable "SUM".
std::string MediumText(const std::string& clerk);
/// TPC-D Q6 for one ship year, date literals quoted. Result variable "SUM".
std::string LongText(int year);
const char* ResultVar(ReqClass c);

/// First and last Q6 ship year the long class draws from.
inline constexpr int kFirstYear = 1992;
inline constexpr int kLastYear = 1998;

/// One distinct request text and the answer it must produce.
struct Expected {
  std::string text;
  ReqClass cls = ReqClass::kShort;
  /// The result rendered as the wire's RESULT body renders it.
  std::string rendered;
  /// Scalar results (short and long): the value itself.
  double value = 0;
  uint64_t faults = 0;
};

/// Runs `text` directly through MilInterpreter::Run on a copy of `catalog`
/// at `degree` and records its answer.
moaflat::Result<Expected> ComputeExpected(const moaflat::mil::MilEnv& catalog,
                                          const std::string& text,
                                          ReqClass cls, int degree,
                                          SpanLog* spans);

/// Renders a result binding the way the wire's RESULT body does.
std::string RenderBinding(const moaflat::mil::MilEnv::Binding& b);

/// The texts' self-test against one loaded instance: every class text
/// analyzes clean; the long text for 1994 reproduces QuerySuite Q6's
/// checksum; the medium text for the probe clerk reproduces Q13's; the
/// short text matches a sum over the generated rows. Problems are added
/// to `result`. Also reports whether the printer defect still shows.
void CheckTexts(const moaflat::tpcd::TpcdData& data,
                const std::shared_ptr<moaflat::tpcd::TpcdInstance>& inst,
                bool short_only, RunResult* result);

}  // namespace perfbench

#endif  // PERFBENCH_TEXTS_H_
