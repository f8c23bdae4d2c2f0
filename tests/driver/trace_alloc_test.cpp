//===- trace_alloc_test.cpp - Disabled tracing allocates nothing ----------===//
//
// Part of futharkcc, a C++ reproduction of the PLDI'17 Futhark compiler.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// With the session disabled, spans, args, instants and counters must cost
/// a branch and no heap allocation, even for names and keys too long for
/// the small-string buffer ("device.kernel_launches").  This binary counts
/// every operator new, so it runs on its own.
///
//===----------------------------------------------------------------------===//

#include "trace/Trace.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <new>

namespace {
long long Allocations = 0;
} // namespace

void *operator new(std::size_t N) {
  ++Allocations;
  if (void *P = std::malloc(N ? N : 1))
    return P;
  throw std::bad_alloc();
}
void operator delete(void *P) noexcept { std::free(P); }
void operator delete(void *P, std::size_t) noexcept { std::free(P); }

using namespace fut;

namespace {

/// The trace calls of one simulated kernel launch, with long names, keys
/// and a string arg.
void traceLaunch() {
  trace::ScopedSpan Span("kernel:threadbody-with-a-long-name", "device",
                         trace::kComputeEngineTid);
  Span.arg("cycles_roofline_estimate", 1234.5);
  Span.arg("private_accesses", static_cast<int64_t>(42));
  Span.arg("shard_device", 1);
  Span.arg("array_name_argument", "xs_with_a_long_name");
  trace::counter("device.kernel_launches");
  trace::counter("device.coalesced_tx", 7);
  trace::TraceSession::global().instant("fault:launch-failed", "device");
}

} // namespace

TEST(TraceAllocTest, DisabledTracingDoesNotAllocate) {
  trace::TraceSession &TS = trace::TraceSession::global();
  TS.setEnabled(false);
  TS.clear();
  long long Before = Allocations;
  for (int I = 0; I < 100; ++I)
    traceLaunch();
  EXPECT_EQ(Allocations - Before, 0);
  EXPECT_TRUE(TS.events().empty());
  EXPECT_TRUE(TS.counters().empty());
}

TEST(TraceAllocTest, EnabledTracingRecordsTheSameCalls) {
  trace::TraceSession &TS = trace::TraceSession::global();
  TS.clear();
  TS.setEnabled(true);
  traceLaunch();
  TS.setEnabled(false);
  ASSERT_EQ(TS.events().size(), 2u);
  const trace::TraceEvent &Span = TS.events()[0];
  EXPECT_EQ(Span.Name, "kernel:threadbody-with-a-long-name");
  ASSERT_EQ(Span.Args.size(), 4u);
  EXPECT_EQ(Span.Args[0].Key, "cycles_roofline_estimate");
  EXPECT_EQ(Span.Args[3].Str, "xs_with_a_long_name");
  EXPECT_EQ(TS.events()[1].Name, "fault:launch-failed");
  EXPECT_EQ(TS.counterValue("device.kernel_launches"), 1);
  EXPECT_EQ(TS.counterValue("device.coalesced_tx"), 7);
  TS.clear();
}
