#ifndef DFLOW_EXEC_TEST_HOOKS_H_
#define DFLOW_EXEC_TEST_HOOKS_H_

namespace dflow::test_hooks {

/// Deliberate, flag-guarded operator bug for the differential oracle's
/// shrinker demo (tools/fuzz_plans --inject_bug, tests/fuzz_test.cc): when
/// set, FilterOperator::Select — where every filter builds its selection,
/// standalone or inside a fused kernel — silently drops the first selected
/// row of every chunk: the classic off-by-one a mask-compaction rewrite
/// could introduce. Only
/// the fuzzing harness flips this; nothing in production paths reads it
/// besides the single guarded branch in filter.cc.
extern bool g_filter_drop_first_row;

}  // namespace dflow::test_hooks

#endif  // DFLOW_EXEC_TEST_HOOKS_H_
