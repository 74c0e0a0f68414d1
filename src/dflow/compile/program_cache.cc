#include "dflow/compile/program_cache.h"

#include <utility>

namespace dflow::compile {

ProgramCache::ProgramCache(size_t capacity) : capacity_(capacity) {}

std::shared_ptr<CompiledQuery> ProgramCache::Lookup(const CacheKey& key) {
  auto it = index_.find(key);
  if (it == index_.end()) return nullptr;
  lru_.splice(lru_.begin(), lru_, it->second);  // bump to most-recently-used
  return lru_.front().entry;
}

void ProgramCache::Insert(const CacheKey& key,
                          std::shared_ptr<CompiledQuery> entry) {
  auto it = index_.find(key);
  if (it != index_.end()) {
    it->second->entry = std::move(entry);
    lru_.splice(lru_.begin(), lru_, it->second);
    return;
  }
  lru_.push_front(Slot{key, std::move(entry)});
  index_[key] = lru_.begin();
  while (lru_.size() > capacity_) {
    index_.erase(lru_.back().key);
    lru_.pop_back();
    ++stats_.evictions;
  }
}

void ProgramCache::InvalidateStaleEpochs(uint64_t current_epoch) {
  for (auto it = lru_.begin(); it != lru_.end();) {
    if (it->key.fabric_epoch < current_epoch) {
      index_.erase(it->key);
      it = lru_.erase(it);
      ++stats_.invalidations;
    } else {
      ++it;
    }
  }
}

}  // namespace dflow::compile
