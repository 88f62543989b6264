#!/usr/bin/env bash
# lint-inject-smoke: proves the concurrency/resource lint gate fails the
# build END TO END, not just in fixture tests. A file carrying one
# violation per rule — a leaked goroutine, a ctx-less blocking call, a
# lock held across an HTTP round-trip, a leaked file — is injected into
# internal/serve, lintwheels must exit nonzero with exactly one finding
# per rule at that file (a site reported twice fails too), and the
# injection is removed again on every exit path.
set -euo pipefail
cd "$(dirname "$0")/.."

inject=internal/serve/zz_injected_violations.go
trap 'rm -f "$inject"' EXIT

cat > "$inject" <<'EOF'
package serve

// Injected by scripts/lint_inject_smoke.sh — one violation per
// concurrency/resource rule. Never committed; deleted by the script's
// exit trap.

import (
	"context"
	"net/http"
	"os"
	"sync"
	"time"
)

func zzLeakedSpawn() {
	go func() {
		for {
			time.Sleep(time.Second)
		}
	}()
}

func zzCtxlessBlock(ctx context.Context, ch chan int) int {
	return <-ch
}

type zzBox struct{ mu sync.Mutex }

func (b *zzBox) zzHeldPush(c *http.Client, req *http.Request) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	resp, err := c.Do(req)
	if err != nil {
		return err
	}
	return resp.Body.Close()
}

func zzLeakedOpen(path string, skip bool) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	if skip {
		return nil
	}
	return f.Close()
}
EOF

echo "lint-inject-smoke: running lintwheels against the injected violations"
if out=$(go run ./cmd/lintwheels -rules goleak,ctxflow,lockhold,resleak ./internal/serve 2>&1); then
	echo "lint-inject-smoke: FAIL — lintwheels exited 0 despite injected violations" >&2
	printf '%s\n' "$out" >&2
	exit 1
fi

fail=0
for rule in goleak ctxflow lockhold resleak; do
	n=$(printf '%s\n' "$out" | grep -c "zz_injected_violations\.go:[0-9]*:[0-9]*: \[$rule\]" || true)
	if [ "$n" -ne 1 ]; then
		echo "lint-inject-smoke: FAIL — $n $rule findings at the injected file, want exactly 1" >&2
		fail=1
	fi
done
if [ "$fail" -ne 0 ]; then
	printf '%s\n' "$out" >&2
	exit 1
fi

printf '%s\n' "$out"
echo "lint-inject-smoke: OK — each injected violation detected exactly once and the gate failed as required"
