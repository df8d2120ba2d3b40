# Convenience targets; everything is plain `go` underneath.

GO ?= go

.PHONY: build test vet fmt perfbench bench race fuzz experiments examples cover

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# The same gate CI runs: fail if any file needs gofmt -s.
fmt:
	@out=$$(gofmt -s -l .); if [ -n "$$out" ]; then echo "gofmt -s needed on:" >&2; echo "$$out" >&2; exit 1; fi

# perfbench is a nested module: the root build and tests never compile
# it, so an API it calls that was deleted or renamed only shows up here.
perfbench:
	cd perfbench && $(GO) vet ./... && $(GO) test ./...

race:
	$(GO) test -race ./...

bench:
	$(GO) test -bench=. -benchmem ./...

# Every fuzz target for 10s each: go test -fuzz accepts one target per
# run, so loop over package:target pairs.
FUZZ_TARGETS = \
	internal/rule:FuzzParseRule \
	internal/rule:FuzzParsePredicate \
	internal/rule:FuzzCanonicalize \
	internal/table:FuzzCSVParity \
	internal/sim:FuzzEmitterParity \
	internal/sim:FuzzJaroWinkler \
	internal/server:FuzzCursor \
	internal/server:FuzzRequestBodies \
	internal/bitmap:FuzzBitsDecode \
	internal/persist:FuzzLoad \
	internal/wal:FuzzFrames

fuzz:
	@set -e; for t in $(FUZZ_TARGETS); do \
		pkg=$${t%%:*}; fn=$${t##*:}; \
		echo "== $$fn (./$$pkg)"; \
		$(GO) test -run '^$$' -fuzz "^$$fn$$" -fuzztime=10s ./$$pkg; \
	done

cover:
	$(GO) test -cover ./internal/... ./cmd/...

# Regenerate every table and figure of the paper's evaluation.
experiments:
	$(GO) run ./cmd/embench -exp all -scale 0.02

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/products_debugging
	$(GO) run ./examples/ordering
	$(GO) run ./examples/restaurants_blocking
	$(GO) run ./examples/session_resume
	$(GO) run ./examples/triage
