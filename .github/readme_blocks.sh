#!/bin/sh
# Runs one README block as written, so the docs cannot drift:
#   quickstart  the first python block, the library quick start, under
#               `python -W error`
#   cli         the Command line block (synth through report, exactly five
#               `edanav` commands) with the installed `edanav`, in an empty
#               directory; any failing command fails the script
# Usage: sh .github/readme_blocks.sh {quickstart|cli}
set -eu
readme="$(cd "$(dirname "$0")/.." && pwd)/README.md"
out="${RUNNER_TEMP:-$(mktemp -d)}"
case "${1:-}" in
  quickstart)
    awk '/^```python$/ {inside = 1; next} /^```$/ {if (inside) exit} inside' "$readme" > "$out/quickstart.py"
    test -s "$out/quickstart.py"
    python -W error "$out/quickstart.py"
    ;;
  cli)
    awk '/^## Command line$/ {section = 1} section && /^```sh$/ {inside = 1; next} inside && /^```$/ {exit} inside' "$readme" > "$out/cli.sh"
    test "$(grep -c '^edanav ' "$out/cli.sh")" -eq 5
    cd "$(mktemp -d)"
    sh -e "$out/cli.sh"
    ;;
  *)
    echo "usage: $0 {quickstart|cli}" >&2
    exit 2
    ;;
esac
