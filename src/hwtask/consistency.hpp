// Hardware-task consistency record (paper §IV.C / Fig. 5).
//
// Each client's hardware task data section reserves its tail for a record
// the Hardware Task Manager maintains: a state flag, the task id, and — when
// the region was taken away mid-use — the saved interface register contents.
// The guest (or the manager's resume path) restores execution from the saved
// registers; a kStateInconsistent flag means exactly one preemption save is
// outstanding and the region's registers are NOT what the client programmed.
//
// The layout is shared between the manager (writer), the preemption-resume
// path (reader), guests inspecting their own section, and the fuzzer's
// save/restore oracle — hence a header of its own next to the task library.
#pragma once

#include "util/types.hpp"

namespace minova::hwtask {

/// Record layout: [ state, task, regs[0..7] ] — 10 words at the section tail.
inline constexpr u32 kConsistencyWords = 2 + 8;
inline constexpr u32 kStateConsistent = 0;
inline constexpr u32 kStateInconsistent = 1;

/// Offset of the consistency record within a data section of `size` bytes.
constexpr u32 consistency_offset(u32 data_section_size) {
  return data_section_size - kConsistencyWords * 4;
}

}  // namespace minova::hwtask
