// Tests for supply profiles (trace/supply_profiles) and trace persistence
// (trace/trace_io).
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>

#include "trace/supply_profiles.hpp"
#include "trace/trace_io.hpp"
#include "util/contracts.hpp"

namespace pns::trace {
namespace {

TEST(SupplyProfile, EmptyProfileIsConstant) {
  SupplyProfile p(5.0);
  EXPECT_DOUBLE_EQ(p.at(0.0), 5.0);
  EXPECT_DOUBLE_EQ(p.at(100.0), 5.0);
  EXPECT_DOUBLE_EQ(p.duration(), 0.0);
}

TEST(SupplyProfile, HoldKeepsValue) {
  SupplyProfile p(5.0);
  p.hold(10.0);
  EXPECT_DOUBLE_EQ(p.at(5.0), 5.0);
  EXPECT_DOUBLE_EQ(p.duration(), 10.0);
}

TEST(SupplyProfile, RampInterpolates) {
  SupplyProfile p(4.0);
  p.ramp_to(6.0, 10.0);
  EXPECT_DOUBLE_EQ(p.at(0.0), 4.0);
  EXPECT_DOUBLE_EQ(p.at(5.0), 5.0);
  EXPECT_DOUBLE_EQ(p.at(10.0), 6.0);
  EXPECT_DOUBLE_EQ(p.at(20.0), 6.0);  // clamps to final value
}

TEST(SupplyProfile, StepIsInstant) {
  SupplyProfile p(4.0);
  p.hold(1.0).step_to(5.5).hold(1.0);
  EXPECT_DOUBLE_EQ(p.at(0.5), 4.0);
  EXPECT_DOUBLE_EQ(p.at(1.0), 5.5);
  EXPECT_DOUBLE_EQ(p.at(1.5), 5.5);
}

TEST(SupplyProfile, SineOscillatesAroundEntryValue) {
  SupplyProfile p(5.0);
  p.sine(1.0, 4.0, 8.0);  // amplitude 1, period 4, two cycles
  EXPECT_NEAR(p.at(0.0), 5.0, 1e-12);
  EXPECT_NEAR(p.at(1.0), 6.0, 1e-12);
  EXPECT_NEAR(p.at(3.0), 4.0, 1e-12);
  EXPECT_NEAR(p.at(4.0), 5.0, 1e-9);
}

TEST(SupplyProfile, SegmentsChainContinuously) {
  SupplyProfile p(4.0);
  p.ramp_to(6.0, 2.0).hold(1.0).ramp_to(5.0, 2.0);
  EXPECT_DOUBLE_EQ(p.at(2.0), 6.0);
  EXPECT_DOUBLE_EQ(p.at(3.0), 6.0);
  EXPECT_DOUBLE_EQ(p.at(4.0), 5.5);
  EXPECT_DOUBLE_EQ(p.at(5.0), 5.0);
  EXPECT_DOUBLE_EQ(p.duration(), 5.0);
}

TEST(SupplyProfile, AsFunctionSnapshotsState) {
  SupplyProfile p(4.0);
  p.ramp_to(6.0, 2.0);
  auto f = p.as_function();
  p.step_to(0.0);  // later mutation must not affect the snapshot
  EXPECT_DOUBLE_EQ(f(1.0), 5.0);
  EXPECT_DOUBLE_EQ(f(2.0), 6.0);
}

TEST(SupplyProfile, RejectsNegativeDurations) {
  SupplyProfile p(4.0);
  EXPECT_THROW(p.hold(-1.0), pns::ContractViolation);
  EXPECT_THROW(p.ramp_to(5.0, -1.0), pns::ContractViolation);
  EXPECT_THROW(p.sine(1.0, 0.0, 1.0), pns::ContractViolation);
}

TEST(TraceIo, RoundTripsSeries) {
  pns::TimeSeries ts;
  ts.append(0.0, 1.5);
  ts.append(1.0, 2.5);
  ts.append(2.0, -0.5);
  const std::string path = ::testing::TempDir() + "/pns_trace_rt.csv";
  ASSERT_TRUE(save_trace_csv(path, ts));
  auto loaded = load_trace_csv(path);
  EXPECT_EQ(loaded.size(), 3u);
  EXPECT_DOUBLE_EQ(loaded(0.0), 1.5);
  EXPECT_DOUBLE_EQ(loaded(0.5), 2.0);
  EXPECT_DOUBLE_EQ(loaded(2.0), -0.5);
  std::remove(path.c_str());
}

TEST(TraceIo, LoadsHeaderlessCsv) {
  const std::string path = ::testing::TempDir() + "/pns_trace_nh.csv";
  {
    std::ofstream f(path);
    f << "0,1\n1,2\n";
  }
  auto loaded = load_trace_csv(path);
  EXPECT_DOUBLE_EQ(loaded(0.5), 1.5);
  std::remove(path.c_str());
}

TEST(TraceIo, MissingFileThrows) {
  EXPECT_THROW(load_trace_csv("/nonexistent/path/file.csv"),
               std::runtime_error);
}

TEST(TraceIo, MalformedLineThrows) {
  const std::string path = ::testing::TempDir() + "/pns_trace_bad.csv";
  {
    std::ofstream f(path);
    f << "t,v\n0,1\nnot-a-number,2\n";
  }
  EXPECT_THROW(load_trace_csv(path), std::runtime_error);
  std::remove(path.c_str());
}

TEST(TraceIo, TooFewSamplesThrows) {
  const std::string path = ::testing::TempDir() + "/pns_trace_short.csv";
  {
    std::ofstream f(path);
    f << "t,v\n0,1\n";
  }
  EXPECT_THROW(load_trace_csv(path), std::runtime_error);
  std::remove(path.c_str());
}

/// Writes `bytes` to a temporary trace file and returns its path.
std::string write_trace(const std::string& name, const std::string& bytes) {
  const std::string path = ::testing::TempDir() + "/" + name;
  std::ofstream f(path, std::ios::binary | std::ios::trunc);
  f << bytes;
  return path;
}

/// Loads `path`, expecting a runtime_error naming "PATH:LINE:" and
/// `reason`, then removes the file.
void expect_load_fault(const std::string& path, std::size_t line,
                       const std::string& reason) {
  try {
    load_trace_csv(path);
    ADD_FAILURE() << "loaded " << path;
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("load_trace_csv: " + path + ":" +
                        std::to_string(line) + ": "),
              std::string::npos)
        << what;
    EXPECT_NE(what.find(reason), std::string::npos) << what;
  }
  std::remove(path.c_str());
}

TEST(TraceIo, PartlyNumericCellThrows) {
  // strtod reads "10x" as 10; the whole cell must parse.
  expect_load_fault(write_trace("pns_trace_10x.csv", "t,g\n0,100\n10x,200\n"),
                    3, "time '10x' is not a number");
  expect_load_fault(write_trace("pns_trace_v.csv", "0,100\n10,2e2.5\n"), 2,
                    "value '2e2.5' is not a number");
}

TEST(TraceIo, NonFiniteValueThrowsAtItsLine) {
  std::string csv = "t,g\n";
  for (int k = 0; k < 29; ++k) csv += std::to_string(k) + ",500\n";
  csv += "29,nan\n30,500\n";  // line 31
  expect_load_fault(write_trace("pns_trace_nanv.csv", csv), 31,
                    "value 'nan' is not finite");
  expect_load_fault(write_trace("pns_trace_infv.csv", "0,1\n1,-inf\n"), 2,
                    "value '-inf' is not finite");
}

TEST(TraceIo, NonFiniteTimeThrowsBeforeAnySort) {
  expect_load_fault(write_trace("pns_trace_nant.csv", "0,1\nnan,2\n3,4\n"),
                    2, "time 'nan' is not finite");
  expect_load_fault(write_trace("pns_trace_inft.csv", "0,1\ninf,2\n"), 2,
                    "time 'inf' is not finite");
}

TEST(TraceIo, DuplicateTimeThrowsAtItsLine) {
  expect_load_fault(write_trace("pns_trace_dup.csv", "t,g\n0,1\n5,2\n5,3\n"),
                    4, "time '5' does not exceed the previous time");
}

TEST(TraceIo, OutOfOrderTimesThrow) {
  // Files used to be sorted on load; times must now increase in file order.
  expect_load_fault(write_trace("pns_trace_ooo.csv", "0,1\n10,2\n5,3\n"), 3,
                    "time '5' does not exceed the previous time");
}

TEST(TraceIo, AcceptsSurroundingWhitespaceAndCrlf) {
  const std::string path =
      write_trace("pns_trace_ws.csv", "t,g\r\n 0 , 1\r\n\t1,\t3 \r\n");
  const auto loaded = load_trace_csv(path);
  EXPECT_EQ(loaded.size(), 2u);
  EXPECT_DOUBLE_EQ(loaded(0.5), 2.0);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace pns::trace
