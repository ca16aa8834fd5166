// Self-profiler (src/obs/profiler.hpp): scope-tree semantics, activation
// contract, JSON shape — and the tenth pinned golden: the
// simulation output is byte-identical with the profiler ACTIVE, because the
// profiler only ever reads the host clock, never simulation state.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <thread>

#include "obs/profiler.hpp"
#include "tests/golden_cases.hpp"

namespace flexmr {
namespace {

using obs::ProfScope;
using obs::Profiler;

/// Installs a fresh profiler for the test body and guarantees deactivation
/// even when an assertion fails mid-test.
struct ActiveProfiler {
  Profiler profiler;
  ActiveProfiler() { Profiler::activate(profiler); }
  ~ActiveProfiler() { Profiler::deactivate(); }
};

TEST(Profiler, InactiveByDefaultAndScopesNoOp) {
  ASSERT_EQ(Profiler::active(), nullptr);
  // Instrumentation sites must be safe with no profiler installed.
  FLEXMR_PROF_SCOPE("never/recorded");
  EXPECT_EQ(Profiler::active(), nullptr);
}

TEST(Profiler, ScopeTreeCountsAndSiblingMerge) {
  ActiveProfiler active;
  Profiler& p = active.profiler;
  {
    FLEXMR_PROF_SCOPE("outer");
    {
      FLEXMR_PROF_SCOPE("inner");
    }
    {
      FLEXMR_PROF_SCOPE("inner");  // same (parent, name): same scope node
    }
  }
  {
    FLEXMR_PROF_SCOPE("outer");  // re-entering a root merges too
  }
  // "inner" at the root is a *different* scope than "inner" under "outer".
  {
    FLEXMR_PROF_SCOPE("inner");
  }

  ASSERT_EQ(p.scopes().size(), 3u);
  const Profiler::Scope* outer = p.find("outer");
  ASSERT_NE(outer, nullptr);
  EXPECT_EQ(outer->count, 2u);
  EXPECT_EQ(outer->parent, Profiler::kNoParent);
  ASSERT_EQ(outer->children.size(), 1u);

  const Profiler::Scope& inner_child = p.scopes()[outer->children[0]];
  EXPECT_STREQ(inner_child.name, "inner");
  EXPECT_EQ(inner_child.count, 2u);

  // Exclusive never exceeds inclusive, and the parent's inclusive time is
  // exactly its self time plus its completed children's inclusive time.
  EXPECT_LE(inner_child.exclusive_ns, inner_child.inclusive_ns);
  EXPECT_LE(outer->exclusive_ns, outer->inclusive_ns);
  EXPECT_EQ(outer->inclusive_ns,
            outer->exclusive_ns + inner_child.inclusive_ns);

  // total_exclusive_ns is the self-time denominator over all scopes.
  std::uint64_t sum = 0;
  for (const auto& s : p.scopes()) sum += s.exclusive_ns;
  EXPECT_EQ(p.total_exclusive_ns(), sum);
}

TEST(Profiler, OffOwnerThreadScopesAreNoOps) {
  ActiveProfiler active;
  std::thread worker([] {
    // Worker threads (bench pool sweeps) hit instrumented code; the scope
    // stack belongs to the activating thread, so this must not record.
    FLEXMR_PROF_SCOPE("worker/ignored");
  });
  worker.join();
  EXPECT_EQ(active.profiler.find("worker/ignored"), nullptr);
  EXPECT_TRUE(active.profiler.scopes().empty());
}

TEST(Profiler, JsonShape) {
  ActiveProfiler active;
  Profiler& p = active.profiler;
  {
    FLEXMR_PROF_SCOPE("sim/dispatch");
    {
      FLEXMR_PROF_SCOPE("rm/offer_all");
    }
  }

  const std::string doc = p.json();
  EXPECT_EQ(doc.rfind("{\"schema\":\"flexmr.profile.v1\"", 0), 0u);
  EXPECT_NE(doc.find("\"host\":{"), std::string::npos);
  EXPECT_NE(doc.find("\"wall_ns\":"), std::string::npos);
  EXPECT_NE(doc.find("\"total_exclusive_ns\":"), std::string::npos);
  EXPECT_NE(doc.find("\"name\":\"sim/dispatch\""), std::string::npos);
  EXPECT_NE(doc.find("\"name\":\"rm/offer_all\""), std::string::npos);
  // Roots serialize parent as -1; children reference an earlier id.
  EXPECT_NE(doc.find("\"parent\":-1"), std::string::npos);
  EXPECT_NE(doc.find("\"parent\":0"), std::string::npos);
}

std::uint64_t parse_events_fired(const std::string& result_json) {
  const std::string key = "\"events_fired\":";
  const auto pos = result_json.find(key);
  EXPECT_NE(pos, std::string::npos);
  return std::stoull(result_json.substr(pos + key.size()));
}

// The tenth pinned golden: enabling the profiler changes no simulation
// output. Every hash must match the constant test_golden_determinism.cpp
// pins with the profiler off — and the profiler must have actually
// observed the run (one sim/dispatch per fired event).
TEST(ProfilerGolden, ClassicEngineByteIdenticalWithProfilerActive) {
  for (const auto& c : golden::kCases) {
    ActiveProfiler active;
    const std::string json = golden::run_case(c, {});
    EXPECT_EQ(golden::fnv1a(json), c.expected)
        << c.label << " diverged with the profiler active";
    const Profiler::Scope* dispatch = active.profiler.find("sim/dispatch");
    ASSERT_NE(dispatch, nullptr) << c.label;
    EXPECT_EQ(dispatch->count, parse_events_fired(json)) << c.label;
  }
}

}  // namespace
}  // namespace flexmr
