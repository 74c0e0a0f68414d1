#include "dflow/exec/parallel/morsel.h"

#include <atomic>
#include <memory>
#include <utility>
#include <vector>

#include "dflow/exec/parallel/error_slot.h"

namespace dflow::parallel {

Status DispatchMorsels(const TableScanSource& scan, const MorselFn& fn,
                       WorkStealingScheduler* scheduler,
                       DispatchStats* stats) {
  ErrorSlot errors;
  std::atomic<uint64_t> morsels{0};
  std::atomic<uint64_t> rows{0};
  auto run = [&](uint32_t worker, Morsel&& morsel) {
    if (errors.failed()) return;
    morsels += 1;
    rows += morsel.chunk.num_rows();
    errors.Record(fn(worker, std::move(morsel)));
  };

  const std::vector<size_t> groups = scan.SurvivingRowGroups();
  for (size_t i = 0; i < groups.size(); ++i) {
    const size_t rg = groups[i];
    scheduler->SubmitTo(
        static_cast<uint32_t>(i % scheduler->num_workers()),
        [&, rg](uint32_t worker) {
          if (errors.failed()) return;
          Result<std::vector<DataChunk>> decoded = scan.DecodeRowGroup(rg);
          if (!decoded.ok()) {
            errors.Record(decoded.status());
            return;
          }
          std::vector<DataChunk> chunks = std::move(decoded).ValueOrDie();
          for (size_t c = 1; c < chunks.size(); ++c) {
            // std::function needs a copyable task; the shared_ptr makes
            // the decoded chunk's one trip into `fn` a move.
            auto morsel = std::make_shared<Morsel>(
                Morsel{std::move(chunks[c]), uint64_t{rg} << 32 | c});
            scheduler->SubmitTo(worker, [&run, morsel](uint32_t w) {
              run(w, std::move(*morsel));
            });
          }
          if (!chunks.empty()) {
            run(worker, Morsel{std::move(chunks[0]), uint64_t{rg} << 32});
          }
        });
  }
  errors.Record(scheduler->Wait());
  if (stats != nullptr) {
    stats->morsels += morsels.load();
    stats->rows += rows.load();
  }
  return errors.first();
}

}  // namespace dflow::parallel
