#ifndef DFLOW_EXEC_INVARIANTS_H_
#define DFLOW_EXEC_INVARIANTS_H_

#include <cstdint>
#include <string>

/// Runtime invariant oracle for the dataflow executor (the dynamic
/// counterpart of the static plan verifier). DFLOW_INVARIANT mirrors
/// DFLOW_TRACE's compile-away contract: -DDFLOW_INVARIANTS_DISABLED (CMake
/// option DFLOW_DISABLE_INVARIANTS) removes every check, every ledger
/// update wrapped in DFLOW_INVARIANTS_ONLY, and the InvariantFailed symbol
/// itself, so the release-notrace CI leg can prove the oracle costs nothing
/// when off.
///
/// The executor asserts, per edge and per event:
///  - tuple conservation: chunks enqueued == launched + still queued, and
///    chunks launched == consumed + in transit + awaiting retransmission
///    (pending) + reordering,
///  - credit safety: credits held stay within [0, capacity] and agree with
///    the gate's own ledger,
///  - virtual-time monotonicity: event timestamps never run backwards,
///  - completion: a finished edge has conserved every tuple and returned
///    every credit.

namespace dflow::invariants {

/// Total invariant conditions evaluated by this process (always defined;
/// stays 0 when the checker is compiled out). Lets tests assert the oracle
/// actually ran.
uint64_t checks_run();

#ifndef DFLOW_INVARIANTS_DISABLED
void BumpCheck();
[[noreturn]] void InvariantFailed(const char* file, int line,
                                  const char* condition,
                                  const std::string& detail);
#endif

}  // namespace dflow::invariants

#ifndef DFLOW_INVARIANTS_DISABLED
/// Asserts a runtime invariant. `detail` is evaluated only on failure.
#define DFLOW_INVARIANT(cond, detail)                                     \
  do {                                                                    \
    ::dflow::invariants::BumpCheck();                                     \
    if (!(cond)) {                                                        \
      ::dflow::invariants::InvariantFailed(__FILE__, __LINE__, #cond,     \
                                           (detail));                     \
    }                                                                     \
  } while (0)
/// Emits `stmt` only when the invariant checker is compiled in (ledger
/// updates that exist solely to feed DFLOW_INVARIANT checks).
#define DFLOW_INVARIANTS_ONLY(stmt) stmt
#else
// Compiled out, `cond` and `detail` stay unevaluated operands: they are
// type-checked and name their operands (so invariant-only locals are still
// used), but nothing is evaluated, no code is emitted and nothing refers
// to InvariantFailed.
#define DFLOW_INVARIANT(cond, detail)                     \
  do {                                                    \
    (void)sizeof((void)!(cond), (void)(detail), 0);       \
  } while (0)
#define DFLOW_INVARIANTS_ONLY(stmt)
#endif

#endif  // DFLOW_EXEC_INVARIANTS_H_
