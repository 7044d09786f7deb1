// Test helper: one net::Fabric over either simulation engine — the serial
// EventLoop, or a ParallelEventLoop with one partition per node and two
// workers — so a reliable-channel test body can run unchanged on both.

#ifndef FRAGVISOR_TESTS_ENGINE_FABRIC_H_
#define FRAGVISOR_TESTS_ENGINE_FABRIC_H_

#include <memory>

#include "src/net/fabric.h"
#include "src/sim/event_loop.h"
#include "src/sim/fault_plan.h"
#include "src/sim/parallel_loop.h"

namespace fragvisor {

enum class Engine { kSerial, kParallel };

inline constexpr Engine kEngines[] = {Engine::kSerial, Engine::kParallel};

inline const char* EngineName(Engine engine) {
  return engine == Engine::kSerial ? "serial" : "parallel";
}

class EngineFabric {
 public:
  EngineFabric(Engine engine, int num_nodes, LinkParams link = LinkParams::InfiniBand56G()) {
    if (engine == Engine::kSerial) {
      fabric_ = std::make_unique<Fabric>(&loop_, num_nodes, link);
      return;
    }
    ParallelEventLoop::Options opt;
    opt.num_partitions = num_nodes;
    opt.num_threads = 2;
    opt.lookahead = link.latency;
    ploop_ = std::make_unique<ParallelEventLoop>(opt);
    fabric_ = std::make_unique<Fabric>(ploop_.get(), num_nodes, link);
  }

  Fabric& fabric() { return *fabric_; }

  // Attaches `plan` with one draw stream per node on both engines (the
  // parallel engine requires it), so one plan means one fault schedule.
  void AttachFaultPlan(FaultPlan* plan, RetryPolicy policy = RetryPolicy()) {
    plan->EnablePerNodeStreams(fabric_->num_nodes());
    fabric_->AttachFaultPlan(plan, policy);
  }

  void Run() {
    if (ploop_ != nullptr) {
      ploop_->Run();
    } else {
      loop_.Run();
    }
  }

  // Simulated time at `node`: its partition clock, or the serial clock.
  TimeNs now(NodeId node) { return fabric_->node_loop(node)->now(); }

 private:
  EventLoop loop_;
  std::unique_ptr<ParallelEventLoop> ploop_;
  std::unique_ptr<Fabric> fabric_;
};

}  // namespace fragvisor

#endif  // FRAGVISOR_TESTS_ENGINE_FABRIC_H_
