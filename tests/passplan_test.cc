#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <numeric>
#include <optional>
#include <set>
#include <tuple>
#include <vector>

#include "common/rng.h"
#include "sim/simulator.h"
#include "sim/task.h"
#include "switchsim/pipeline.h"

namespace p4db::sw {
namespace {

// Property suite for the pass planner (PassPlan): the recurrence that
// decides in which pipeline pass each instruction executes (and therefore
// what is single- vs multi-pass) must obey the PISA memory model for ANY
// instruction sequence, must agree with a literal stage-by-stage simulation
// of the data plane, and the live pipeline must execute exactly the plan.

// Reference model: the data plane simulated pass by pass. In each pass the
// packet flows through the register arrays in (stage, reg) order, and each
// array executes the FIRST not-yet-executed instruction targeting it, if
// its PHV operands were produced in a previous pass or at a strictly
// earlier stage of this pass. Quadratic and obviously faithful; the planner
// must reproduce its per-instruction passes and execution order exactly.
struct ReferencePlan {
  std::vector<uint32_t> pass;   // 1-based, per instruction
  std::vector<uint32_t> order;  // instruction indices in execution order
};

ReferencePlan SweepReference(const std::vector<Instruction>& instrs) {
  ReferencePlan ref;
  ref.pass.assign(instrs.size(), 0);
  const auto ready = [&](uint8_t src, uint8_t stage, uint32_t cur_pass) {
    if (src == kNoOperandSrc) return true;
    if (ref.pass[src] == 0) return false;
    return ref.pass[src] < cur_pass || instrs[src].addr.stage < stage;
  };
  for (uint32_t cur_pass = 1; ref.order.size() < instrs.size(); ++cur_pass) {
    std::set<std::pair<uint8_t, uint8_t>> arrays;  // (stage, reg), pending
    for (size_t i = 0; i < instrs.size(); ++i) {
      if (ref.pass[i] == 0) {
        arrays.emplace(instrs[i].addr.stage, instrs[i].addr.reg);
      }
    }
    const size_t before = ref.order.size();
    for (const auto& [stage, reg] : arrays) {
      for (size_t i = 0; i < instrs.size(); ++i) {
        const Instruction& in = instrs[i];
        if (ref.pass[i] != 0 || in.addr.stage != stage || in.addr.reg != reg) {
          continue;
        }
        if (ready(in.operand_src, stage, cur_pass) &&
            ready(in.operand_src2, stage, cur_pass)) {
          ref.pass[i] = cur_pass;
          ref.order.push_back(static_cast<uint32_t>(i));
        }
        break;  // one RegisterAction per array per pass
      }
    }
    EXPECT_GT(ref.order.size(), before) << "pass made no progress";
    if (ref.order.size() == before) break;
  }
  return ref;
}

PipelineConfig SmallConfig() {
  PipelineConfig cfg;
  cfg.num_stages = 6;
  cfg.regs_per_stage = 2;
  cfg.sram_bytes_per_stage = 1024;
  return cfg;
}

std::vector<Instruction> RandomInstrs(Rng& rng, const PipelineConfig& cfg,
                                      size_t max_n) {
  std::vector<Instruction> instrs;
  const size_t n = 1 + rng.NextRange(max_n);
  for (size_t i = 0; i < n; ++i) {
    Instruction in;
    in.op = static_cast<OpCode>(rng.NextRange(6));
    in.addr.stage = static_cast<uint8_t>(rng.NextRange(cfg.num_stages));
    in.addr.reg = static_cast<uint8_t>(rng.NextRange(cfg.regs_per_stage));
    in.addr.index = static_cast<uint32_t>(rng.NextRange(3));
    in.operand = rng.NextInt(-9, 9);
    if (i > 0 && rng.NextBool(0.35)) {
      in.operand_src = static_cast<uint8_t>(rng.NextRange(i));
      in.negate_src = rng.NextBool(0.5);
    }
    if (i > 1 && rng.NextBool(0.15)) {
      in.operand_src2 = static_cast<uint8_t>(rng.NextRange(i));
    }
    instrs.push_back(in);
  }
  return instrs;
}

class PassPlanPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(PassPlanPropertyTest, PlansObeyTheMemoryModel) {
  Rng rng(GetParam());
  const PipelineConfig cfg = SmallConfig();
  for (int iter = 0; iter < 60; ++iter) {
    const auto instrs = RandomInstrs(rng, cfg, 12);
    const PassPlan plan(instrs);
    const uint32_t passes = plan.passes;
    const auto& exec_pass = plan.pass;

    // (a) Every instruction lands in exactly one pass in [1, passes].
    ASSERT_EQ(exec_pass.size(), instrs.size());
    std::set<uint32_t> used_passes;
    for (uint32_t p : exec_pass) {
      ASSERT_GE(p, 1u);
      ASSERT_LE(p, passes);
      used_passes.insert(p);
    }
    // (b) No pass is empty (progress every recirculation).
    EXPECT_EQ(used_passes.size(), passes);

    // (c) One instruction per register array per pass.
    std::map<std::tuple<uint32_t, int, int>, int> per_array;
    for (size_t i = 0; i < instrs.size(); ++i) {
      ++per_array[{exec_pass[i], instrs[i].addr.stage, instrs[i].addr.reg}];
    }
    for (const auto& [key, count] : per_array) {
      EXPECT_EQ(count, 1) << "array used twice in one pass";
    }

    // (d) Dependencies: producer in an earlier pass, or the same pass at a
    // strictly earlier stage.
    for (size_t i = 0; i < instrs.size(); ++i) {
      for (uint8_t src : {instrs[i].operand_src, instrs[i].operand_src2}) {
        if (src == kNoOperandSrc) continue;
        EXPECT_TRUE(exec_pass[src] < exec_pass[i] ||
                    (exec_pass[src] == exec_pass[i] &&
                     instrs[src].addr.stage < instrs[i].addr.stage))
            << "dependency order violated";
      }
    }

    // (e) Same-array program order: for two instructions on one array, the
    // earlier one executes in the earlier pass.
    for (size_t i = 0; i < instrs.size(); ++i) {
      for (size_t j = i + 1; j < instrs.size(); ++j) {
        if (instrs[i].addr.stage == instrs[j].addr.stage &&
            instrs[i].addr.reg == instrs[j].addr.reg) {
          EXPECT_LT(exec_pass[i], exec_pass[j]) << "array order violated";
        }
      }
    }
  }
}

TEST_P(PassPlanPropertyTest, PlannerMatchesTheSweepReference) {
  Rng rng(GetParam() * 7);
  const PipelineConfig cfg = SmallConfig();
  PassPlan plan;  // reused across sequences, as the pipeline's frames are
  for (int iter = 0; iter < 200; ++iter) {
    const auto instrs = RandomInstrs(rng, cfg, 16);
    const ReferencePlan ref = SweepReference(instrs);
    plan.Build(instrs);
    ASSERT_EQ(std::vector<uint32_t>(plan.pass.begin(), plan.pass.end()),
              ref.pass);
    ASSERT_EQ(std::vector<uint32_t>(plan.order.begin(), plan.order.end()),
              ref.order);
    EXPECT_EQ(plan.passes, *std::max_element(ref.pass.begin(),
                                             ref.pass.end()));
  }
}

TEST_P(PassPlanPropertyTest, OrderMatchesTheTupleComparator) {
  // Programs up to a full packet, with stages and registers spread over
  // their whole byte (so an overlap of the packed sort key's fields would
  // reorder) and few enough arrays that most programs take several passes.
  Rng rng(GetParam() * 13);
  PassPlan plan;
  int multipass = 0;
  for (int iter = 0; iter < 100; ++iter) {
    const size_t n = 1 + rng.NextRange(PacketCodec::kMaxInstructions);
    std::vector<Instruction> instrs(n);
    for (size_t i = 0; i < n; ++i) {
      instrs[i].addr.stage = static_cast<uint8_t>(rng.NextRange(6) * 51);
      instrs[i].addr.reg = static_cast<uint8_t>(rng.NextRange(4) * 85);
      if (i > 0 && rng.NextBool(0.3)) {
        instrs[i].operand_src = static_cast<uint8_t>(rng.NextRange(i));
      }
    }
    plan.Build(instrs);
    std::vector<uint32_t> expected(n);
    std::iota(expected.begin(), expected.end(), 0u);
    std::sort(expected.begin(), expected.end(), [&](uint32_t a, uint32_t b) {
      return std::tie(plan.pass[a], instrs[a].addr.stage, instrs[a].addr.reg) <
             std::tie(plan.pass[b], instrs[b].addr.stage, instrs[b].addr.reg);
    });
    ASSERT_EQ(std::vector<uint32_t>(plan.order.begin(), plan.order.end()),
              expected)
        << "program " << iter << " of " << n << " instructions";
    if (plan.passes > 1) ++multipass;
  }
  EXPECT_GT(multipass, 80);
}

struct ResultBox {
  std::optional<SwitchResult> result;
};

sim::Task Collect(Pipeline& pipe, SwitchTxn txn, ResultBox* box) {
  box->result = co_await pipe.Submit(std::move(txn));
}

TEST_P(PassPlanPropertyTest, LiveExecutionMatchesThePlan) {
  Rng rng(GetParam() * 31);
  const PipelineConfig cfg = SmallConfig();
  for (int iter = 0; iter < 40; ++iter) {
    sim::Simulator sim;
    Pipeline pipe(&sim, cfg);
    SwitchTxn txn;
    txn.instrs = RandomInstrs(rng, cfg, 10);
    const PassPlan plan(txn.instrs);
    StampHeader(cfg, plan, &txn);
    ASSERT_TRUE(pipe.Validate(txn).ok());
    ResultBox box;
    sim::Task t = Collect(pipe, std::move(txn), &box);
    sim.Run();
    ASSERT_TRUE(box.result.has_value());
    EXPECT_EQ(box.result->passes, plan.passes);
    EXPECT_EQ(pipe.held_locks(), 0);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PassPlanPropertyTest,
                         ::testing::Range<uint64_t>(1, 11));

}  // namespace
}  // namespace p4db::sw
