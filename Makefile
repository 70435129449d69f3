GO ?= go

.PHONY: build test race vet lint bench loc clean

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

vet:
	$(GO) vet ./...

# lint = vet plus staticcheck when installed (CI installs it; locally it
# is optional and skipped with a note).
lint: vet
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipped (go install honnef.co/go/tools/cmd/staticcheck@latest)"; \
	fi

# bench runs the kernel + sweep-engine benchmarks and writes BENCH_local.json
# (ns/op per benchmark plus engine-vs-naive sweep speedups). The recorded
# BENCH_<n>.json baselines are history and are never overwritten.
bench:
	sh scripts/bench.sh BENCH_local.json

# loc prints the code-size yardstick: non-test Go lines outside perfbench/.
loc:
	@git ls-files '*.go' | grep -v '_test\.go$$' | grep -v '^perfbench/' | xargs cat | wc -l

clean:
	rm -rf .redcane-cache
