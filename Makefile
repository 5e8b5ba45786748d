# Convenience targets; everything is plain `go` underneath.

GO ?= go

.PHONY: all build vet test race bench examples report clean

all: build vet test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

bench:
	$(GO) test -bench=. -benchmem ./...

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/newsdelivery -scale 20
	$(GO) run ./examples/customstrategy
	$(GO) run ./examples/liveproxy
	$(GO) run ./examples/cluster
	$(GO) run ./examples/customcodec

# Full-scale regeneration of every paper table/figure into EXPERIMENTS.md.
report:
	$(GO) run ./cmd/report -out EXPERIMENTS.md

clean:
	$(GO) clean ./...
