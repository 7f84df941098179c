# Convenience targets; everything is plain `go` underneath.

.PHONY: test test-short test-benchmark race bench bench-smoke bench-capacity bench-scale-budget profile-scale profile-chaos chaos sweep k3-sweep figures tables golden-update golden-diff examples vet fuzz-smoke loc loc-budget

test:        ## full test suite (includes ~20s of real-clock tests)
	go test ./...

test-short:  ## skip real-time tests
	go test -short ./...

test-benchmark: ## the benchmark program's own tests (a module of its own that imports internal/...: deleting an API it uses fails here)
	go test -C benchmark -short ./...

race:        ## race detector over the whole module
	go test -race -short ./...

bench:       ## one benchmark per paper figure/table + micro benches
	go test -bench=. -benchmem ./...

bench-smoke: ## one cheap iteration of the throughput benchmark (CI)
	go test -run='^$$' -bench=SimThroughput -benchtime=1x .

# The two budget legs share one recipe: run the benchmark once, then hold
# its B/op and allocs/op under the `bytes` / `allocs` lines of its budget file.
bench-capacity: BENCH = BenchmarkAblationCapacity
bench-capacity: BUDGET = BENCH_capacity_budget
bench-scale-budget: BENCH = BenchmarkTableScale
bench-scale-budget: BUDGET = BENCH_scale_budget
bench-capacity bench-scale-budget: ## capacity / 50x10k scale-table benchmark; fails if B/op or allocs/op exceeds the checked-in budget
	@out=$$(go test -run='^$$' -bench='^$(BENCH)$$' -benchtime=1x -benchmem .) || { echo "$$out"; exit 1; }; \
	echo "$$out"; \
	for m in bytes:B/op allocs:allocs/op; do \
		key=$${m%%:*}; unit=$${m#*:}; \
		got=$$(echo "$$out" | awk -v u="$$unit" '/^$(BENCH)/ { for (i = 2; i <= NF; i++) if ($$i == u) print $$(i-1) }'); \
		budget=$$(awk -v k="$$key" '$$1 == k { print $$2 }' $(BUDGET)); \
		if [ -z "$$got" ] || [ -z "$$budget" ]; then echo "$@: could not parse $$unit from benchmark output or $(BUDGET)"; exit 1; fi; \
		if [ "$$got" -gt "$$budget" ]; then echo "$@: FAIL $$got $$unit exceeds budget $$budget"; exit 1; fi; \
		echo "$@: OK $$got $$unit within budget $$budget"; \
	done

profile-scale: ## CPU + allocation profiles of the 50-server/10k-viewer table
	go run ./cmd/vodbench -table scale -cpuprofile scale.cpu.prof -memprofile scale.mem.prof > /dev/null
	@echo "profile-scale: wrote scale.cpu.prof and scale.mem.prof"
	@echo "  inspect with: go tool pprof -top scale.cpu.prof"

profile-chaos: ## CPU + allocation profiles of a 100-seed chaos sweep on one worker (the paper tier's build-and-tear-down path)
	go run ./cmd/vodbench -chaos -seed 1 -runs 100 -parallel 1 -cpuprofile chaos.cpu.prof -memprofile chaos.mem.prof > /dev/null
	@echo "profile-chaos: wrote chaos.cpu.prof and chaos.mem.prof"
	@echo "  inspect with: go tool pprof -sample_index=alloc_objects -top chaos.mem.prof"

chaos:       ## seeded fault schedules + invariant checks, race-clean
	go test -race -short -run 'Chaos|Monkey|Sweep' ./...
	go run ./cmd/vodbench -chaos -runs 50
	go run ./cmd/vodbench -classes -runs 24

sweep:       ## 120-seed chaos sweep across all cores (wall-time budgeted)
	timeout 300 go run ./cmd/vodbench -chaos -runs 120

k3-sweep:    ## Tbl K's replication rows (k=3 through two crashes, k=2 through one) over seeds 1-520; fails if any seed loses a frame
	@go build -o k3-sweep.vodbench ./cmd/vodbench
	@lossy=0; for seed in $$(seq 1 520); do \
		rows=$$(./k3-sweep.vodbench -table faults -seed $$seed | awk -F '  +' -v seed=$$seed '/^VoD replication/ && $$3 != "0" { print "seed " seed ": " $$1 " (" $$2 "): " $$3 " frames lost" }'); \
		if [ -n "$$rows" ]; then echo "$$rows"; lossy=$$((lossy + 1)); fi; \
	done; rm -f k3-sweep.vodbench; \
	if [ $$lossy -gt 0 ]; then echo "k3-sweep: FAIL $$lossy of 520 seeds lose frames"; exit 1; fi; \
	echo "k3-sweep: OK 0 of 520 seeds lose frames on either replication row"

figures:     ## regenerate every evaluation figure as TSV
	go run ./cmd/vodbench -fig all

tables:      ## regenerate every evaluation table
	go run ./cmd/vodbench -table all

golden-update: ## re-hash every output named in testdata/golden/MANIFEST (the only way to rewrite it; cmd/vodbench's TestGoldenManifest compares)
	@go build -o testdata/golden/vodbench.tmp ./cmd/vodbench
	@while read -r sum args; do \
		echo "$$(./testdata/golden/vodbench.tmp $$args | awk '/^== hot path:/ { exit } !/^sweep: /' | sha256sum | cut -d' ' -f1)  $$args"; \
	done < testdata/golden/MANIFEST > testdata/golden/MANIFEST.tmp; \
	rm -f testdata/golden/vodbench.tmp; \
	mv testdata/golden/MANIFEST.tmp testdata/golden/MANIFEST
	@cat testdata/golden/MANIFEST

golden-diff: ## `make golden-diff REV=<rev>`: every testdata/golden/MANIFEST output of vodbench built at REV (in a temporary git worktree) against the working tree's, as one diff -u per entry
	@test -n "$(REV)" || { echo "golden-diff: usage: make golden-diff REV=<rev>"; exit 2; }
	@dir=.golden-diff; rm -rf $$dir; mkdir -p $$dir; \
	trap 'git worktree remove --force '$$dir'/src 2>/dev/null; git worktree prune; rm -rf '$$dir EXIT; \
	git worktree add -q --detach $$dir/src $(REV) && \
	(cd $$dir/src && go build -o ../old ./cmd/vodbench) && \
	go build -o $$dir/new ./cmd/vodbench || exit 1; \
	while read -r sum args; do \
		for side in old new; do \
			./$$dir/$$side $$args | awk '/^== hot path:/ { exit } !/^sweep: /' > $$dir/$$side.out; \
		done; \
		if cmp -s $$dir/old.out $$dir/new.out; then echo "== vodbench $$args: identical"; \
		else diff -u --label "vodbench $$args @ $(REV)" --label "vodbench $$args @ working tree" $$dir/old.out $$dir/new.out || true; fi; \
	done < testdata/golden/MANIFEST

examples:    ## run all simulated examples
	for e in quickstart failover loadbalance vcr discovery hacounter; do \
		echo "== $$e =="; go run ./examples/$$e; done

fuzz-smoke:  ## short fuzz pass over the wire decoders (any message, and Open into a reused value), the lease and movie-file decoders, the gcs, fetch and congress packet handlers, the virtual clock's firing order and netsim's delivery pool (one -fuzz per run)
	go test -run='^$$' -fuzz='^FuzzDecodeMessage$$' -fuzztime=10s ./internal/wire
	go test -run='^$$' -fuzz='^FuzzDecodeOpenInto$$' -fuzztime=10s ./internal/wire
	go test -run='^$$' -fuzz='^FuzzDecodeLease$$' -fuzztime=10s ./internal/lease
	go test -run='^$$' -fuzz='^FuzzReadFrom$$' -fuzztime=10s ./internal/mpeg
	go test -run='^$$' -fuzz='^FuzzOnPacket$$' -fuzztime=10s ./internal/gcs
	go test -run='^$$' -fuzz='^FuzzProviderOnPacket$$' -fuzztime=10s ./internal/fetch
	go test -run='^$$' -fuzz='^FuzzFetcherOnPacket$$' -fuzztime=10s ./internal/fetch
	go test -run='^$$' -fuzz='^FuzzDirectoryOnPacket$$' -fuzztime=10s ./internal/congress
	go test -run='^$$' -fuzz='^FuzzResolverOnPacket$$' -fuzztime=10s ./internal/congress
	go test -run='^$$' -fuzz='^FuzzVirtualOrder$$' -fuzztime=10s ./internal/clock
	go test -run='^$$' -fuzz='^FuzzDeliveryPool$$' -fuzztime=10s ./internal/netsim

vet:
	go vet ./...
	gofmt -l .

loc:         ## non-test Go in the root module — the line count ROADMAP tracks
	@find . -name '*.go' ! -name '*_test.go' ! -path './benchmark/*' | xargs wc -l | tail -1

loc-budget:  ## fails unless `make loc` equals the checked-in LOC_budget: a PR that moves the line count moves the budget with it, so a cut cannot be silently given back
	@got=$$($(MAKE) -s loc | awk '{ print $$1 }'); budget=$$(awk '$$1 == "lines" { print $$2 }' LOC_budget); \
	if [ -z "$$got" ] || [ -z "$$budget" ]; then echo "loc-budget: could not read make loc or LOC_budget"; exit 1; fi; \
	if [ "$$got" -gt "$$budget" ]; then echo "loc-budget: FAIL $$got lines of non-test Go exceed budget $$budget"; exit 1; fi; \
	if [ "$$got" -lt "$$budget" ]; then echo "loc-budget: FAIL $$got lines of non-test Go are below budget $$budget: lower LOC_budget to $$got"; exit 1; fi; \
	echo "loc-budget: OK $$got lines of non-test Go match budget $$budget"
