// Hardware-task library: the catalogue of accelerator bitstreams.
//
// Mirrors the paper's Hardware Task Manager inputs (§IV.B): for each task,
// a unique ID, the address/size of its .bit file in DRAM, the expected
// reconfiguration latency and the list of PRRs able to host it. The
// canonical evaluation set (§V.B) is FFT-256..8192 (large: PRR1/PRR2 only)
// and QAM-4/16/64 (small: any PRR).
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <vector>

#include "hwtask/ip_core.hpp"
#include "util/types.hpp"

namespace minova::hwtask {

using TaskId = u32;
inline constexpr TaskId kInvalidTask = 0;

struct TaskInfo {
  TaskId id = kInvalidTask;
  std::string name;
  u32 bitstream_bytes = 0;
  std::vector<u32> compatible_prrs;  // PRR indices able to host this task
  std::function<std::unique_ptr<IpCore>()> make_core;
};

class TaskLibrary {
 public:
  /// Register a task; IDs must be unique and nonzero.
  void add(TaskInfo info);

  const TaskInfo* find(TaskId id) const;
  std::unique_ptr<IpCore> instantiate(TaskId id) const;

  std::size_t size() const { return tasks_.size(); }
  std::vector<TaskId> ids() const;

  /// Builds the evaluation task set for a floorplan of `num_large`
  /// FFT-capable regions at indices [0, num_large) and `num_small` QAM-only
  /// regions after them. The paper's set (§V.B) is evaluation_set(2, 2):
  /// PRR0/PRR1 large, PRR2/PRR3 small (the paper numbers them 1-4; we use
  /// 0-based indices).
  static TaskLibrary evaluation_set(u32 num_large, u32 num_small);

  // Task IDs of the canonical set, stable across runs.
  static constexpr TaskId kFft256 = 1;
  static constexpr TaskId kFft512 = 2;
  static constexpr TaskId kFft1024 = 3;
  static constexpr TaskId kFft2048 = 4;
  static constexpr TaskId kFft4096 = 5;
  static constexpr TaskId kFft8192 = 6;
  static constexpr TaskId kQam4 = 7;
  static constexpr TaskId kQam16 = 8;
  static constexpr TaskId kQam64 = 9;

 private:
  std::map<TaskId, TaskInfo> tasks_;
};

}  // namespace minova::hwtask
