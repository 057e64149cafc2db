# Sourced by the sanitizer gates. gtest 1.12 passes a run whose
# --gtest_filter selects no test, so a renamed or deleted suite would
# turn a gate silently empty; run_filtered refuses that.
# Usage: run_filtered <test-binary> <filter>

run_filtered() {
  selected=$("$1" --gtest_list_tests --gtest_filter="$2" | grep -c '^  ') ||
    true
  if [ "$selected" -eq 0 ]; then
    echo "$1: --gtest_filter='$2' selects no test" >&2
    exit 1
  fi
  "$1" --gtest_filter="$2"
}
