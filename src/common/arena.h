// Bump-pointer arena. The engine's interning tables (symbols, ground
// terms) and per-run scratch structures allocate from arenas so that
// term memory is owned wholesale by the Engine and freed in O(1) blocks,
// avoiding per-term malloc/free churn.
#ifndef GDLOG_COMMON_ARENA_H_
#define GDLOG_COMMON_ARENA_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string_view>
#include <vector>

#include "common/guardrails.h"

namespace gdlog {

class Arena {
 public:
  explicit Arena(size_t block_size = 64 * 1024) : block_size_(block_size) {}
  ~Arena();

  // Non-movable: the budget charge is keyed to this object's identity.
  Arena(const Arena&) = delete;
  Arena& operator=(const Arena&) = delete;
  Arena(Arena&&) = delete;
  Arena& operator=(Arena&&) = delete;

  /// Charges current and future block reservations to `budget` (which
  /// must outlive the arena); releases them on destruction.
  void set_memory_budget(MemoryBudget* budget);

  /// Allocates `n` bytes aligned to `align` (a power of two).
  void* Allocate(size_t n, size_t align = alignof(std::max_align_t));

  /// Copies `s` into the arena; the view stays valid for the arena's life.
  std::string_view CopyString(std::string_view s);

  /// Total bytes handed out (for accounting in EXPERIMENTS.md memory rows).
  size_t bytes_allocated() const { return bytes_allocated_; }

 private:
  struct Block {
    std::unique_ptr<char[]> data;
    size_t size = 0;
    size_t used = 0;
  };

  void AddBlock(size_t min_size);

  size_t block_size_;
  size_t bytes_allocated_ = 0;
  std::vector<Block> blocks_;
  MemoryBudget* budget_ = nullptr;
  size_t charged_bytes_ = 0;
};

}  // namespace gdlog

#endif  // GDLOG_COMMON_ARENA_H_
