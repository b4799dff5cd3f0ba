GO ?= go

.PHONY: build test race smoke-procs smoke-compose compose-down

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race -count=1 ./...

# Five gossipnode processes on loopback: bootstrap through the seed's address
# alone, converge the injected rumor, all exit 0.
smoke-procs:
	sh scripts/smoke_procs.sh

# The same deployment shape across real container boundaries: five containers
# on the compose network, peers reached by announced DNS names, every
# container must exit 0 with a convergence report.
smoke-compose:
	sh scripts/smoke_compose.sh

compose-down:
	docker compose down --remove-orphans
