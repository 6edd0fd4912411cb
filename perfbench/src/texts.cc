#include "texts.h"

#include <cmath>
#include <cstdio>

#include "mil/analyzer.h"
#include "mil/parser.h"
#include "moa/rewriter.h"
#include "storage/page_accountant.h"
#include "tpcd/queries.h"

namespace perfbench {

using namespace moaflat;  // NOLINT

std::string ClerkName(int clerk) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "Clerk#%09d", clerk);
  return buf;
}

std::string ShortText(const std::string& clerk) {
  return "orders := select(Order_clerk, \"" + clerk + "\")\n"
         "items := join(Item_order, orders)\n"
         "prices := semijoin(Item_extendedprice, items)\n"
         "total := sum(prices)\n";
}

std::string MediumText(const std::string& clerk) {
  return "clerk_sel := select(Order_clerk, \"" + clerk + "\")\n"
         "via_Item_order := join(Item_order, clerk_sel)\n"
         "returnflags := semijoin(Item_returnflag, via_Item_order)\n"
         "sel := select(returnflags, 'R')\n"
         "orders := semijoin(Item_order, sel)\n"
         "orderdates := join(orders, Order_orderdate)\n"
         "mx := [year](orderdates)\n"
         "extendedprices := semijoin(Item_extendedprice, sel)\n"
         "discounts := semijoin(Item_discount, sel)\n"
         "mx2 := [-](1, discounts)\n"
         "mx3 := [*](extendedprices, mx2)\n"
         "date_of := semijoin(mx, sel)\n"
         "class := group(date_of)\n"
         "INDEX := mirror(class)\n"
         "groups := hunique(INDEX)\n"
         "DATE_all := join(INDEX, date_of)\n"
         "DATE := unique(DATE_all)\n"
         "date_of2 := semijoin(DATE, groups)\n"
         "pergroup := join(INDEX, mx3)\n"
         "SUM := {sum}(pergroup)\n";
}

std::string LongText(int year) {
  const std::string y = std::to_string(year);
  return "shipdate_sel := select.>=(Item_shipdate, \"" + y + "-01-01\")\n"
         "shipdates := semijoin(Item_shipdate, shipdate_sel)\n"
         "sel := select.<=(shipdates, \"" + y + "-12-31\")\n"
         "discounts := semijoin(Item_discount, sel)\n"
         "sel2 := select.>=(discounts, 0.05)\n"
         "discounts2 := semijoin(Item_discount, sel2)\n"
         "sel3 := select.<=(discounts2, 0.07)\n"
         "quantitys := semijoin(Item_quantity, sel3)\n"
         "sel4 := select.<(quantitys, 24)\n"
         "extendedprices := semijoin(Item_extendedprice, sel4)\n"
         "discounts3 := semijoin(Item_discount, sel4)\n"
         "mx := [*](extendedprices, discounts3)\n"
         "SUM := sum(mx)\n";
}

const char* ResultVar(ReqClass c) {
  return c == ReqClass::kShort ? "total" : "SUM";
}

std::string RenderBinding(const mil::MilEnv::Binding& b) {
  if (const bat::Bat* bat = std::get_if<bat::Bat>(&b)) {
    // The RESULT reply's row limit is the caller's; the benchmark always
    // asks for every row, so render them all.
    return bat->DebugString(bat->size());
  }
  return std::get<Value>(b).ToString() + "\n";
}

Result<Expected> ComputeExpected(const mil::MilEnv& catalog,
                                 const std::string& text, ReqClass cls,
                                 int degree, SpanLog* spans) {
  Expected e;
  e.text = text;
  e.cls = cls;
  mil::MilProgram program;
  {
    ScopedSpan span(spans, "mil.ParseMil");
    MF_ASSIGN_OR_RETURN(program, mil::ParseMil(text));
  }
  mil::MilEnv env = catalog;
  storage::IoStats io;
  kernel::ExecTracer tracer;
  kernel::ExecContext ctx;
  ctx.WithIo(&io).WithParallelDegree(degree);
  if (spans != nullptr) ctx.WithTracer(&tracer);
  mil::MilInterpreter interp(&env, &ctx);
  {
    ScopedSpan span(spans, "mil.MilInterpreter::Run");
    MF_RETURN_NOT_OK(interp.Run(program));
  }
  e.faults = io.faults();
  const std::string var = ResultVar(cls);
  auto it = env.bindings().find(var);
  if (it == env.bindings().end()) {
    return Status::KeyError("no result '" + var + "'");
  }
  e.rendered = RenderBinding(it->second);
  if (const Value* v = std::get_if<Value>(&it->second)) {
    MF_ASSIGN_OR_RETURN(e.value, v->ToDouble());
  } else {
    const bat::Bat& b = std::get<bat::Bat>(it->second);
    double total = 0;
    for (size_t i = 0; i < b.size(); ++i) {
      MF_ASSIGN_OR_RETURN(double d, b.tail().GetValue(i).ToDouble());
      total += d;
    }
    e.value = total;
  }
  return e;
}

namespace {

bool Close(double a, double b) {
  return std::fabs(a - b) <= 1e-9 * std::max({1.0, std::fabs(a), std::fabs(b)});
}

void CheckOne(const mil::MilEnv& catalog, const std::string& label,
              const std::string& text, ReqClass cls, double want,
              RunResult* result) {
  auto parsed = mil::ParseMil(text);
  if (!parsed.ok()) {
    result->Fail("text " + label + " does not parse: " +
                 parsed.status().ToString());
    return;
  }
  mil::AnalysisReport report = mil::AnalyzeProgram(*parsed, catalog);
  if (!report.ok()) {
    result->Fail("text " + label + " is rejected by the analyzer: " +
                 report.FirstError());
    return;
  }
  auto got = ComputeExpected(catalog, text, cls, 1, nullptr);
  if (!got.ok()) {
    result->Fail("text " + label + " fails: " + got.status().ToString());
    return;
  }
  if (!Close(got->value, want)) {
    char buf[160];
    std::snprintf(buf, sizeof(buf), "%.10g, reference %.10g", got->value,
                  want);
    result->Fail("text " + label + " gives checksum " + buf);
  }
}

}  // namespace

void CheckTexts(const tpcd::TpcdData& data,
                const std::shared_ptr<tpcd::TpcdInstance>& inst,
                bool short_only, RunResult* result) {
  const mil::MilEnv& catalog = inst->db.env();

  // Short: a sum over the generated rows, independent of both engines.
  const std::string clerk = inst->probe_clerk;
  double want = 0;
  for (const auto& item : data.items) {
    if (data.orders[static_cast<size_t>(item.order)].clerk == clerk) {
      want += item.extendedprice;
    }
  }
  CheckOne(catalog, "short(" + clerk + ")", ShortText(clerk),
           ReqClass::kShort, want, result);
  if (short_only) return;

  tpcd::QuerySuite suite(inst);
  kernel::ExecContext ctx;
  auto q13 = suite.RunMonet(13, ctx);
  auto q6 = suite.RunMonet(6, ctx);
  if (!q13.ok() || !q6.ok()) {
    result->Fail("QuerySuite reference run failed");
    return;
  }
  CheckOne(catalog, "medium(" + clerk + ")", MediumText(clerk),
           ReqClass::kMedium, q13->check, result);
  CheckOne(catalog, "long(1994)", LongText(1994), ReqClass::kLong, q6->check,
           result);

  // The printer defect these texts work around: report it while it lasts,
  // so it is never routed around silently.
  moa::Rewriter rewriter(&inst->db);
  auto tr = rewriter.TranslateText(suite.MoaText(6));
  if (tr.ok()) {
    auto reparsed = mil::ParseMil(tr->program.ToString());
    const bool vetoed =
        !reparsed.ok() || !mil::AnalyzeProgram(*reparsed, catalog).ok();
    result->env["printer_date_roundtrip"] =
        vetoed ? "defect present: printed Q6 MIL is vetoed after ParseMil"
               : "fixed: printed Q6 MIL analyzes clean";
  }
}

}  // namespace perfbench
