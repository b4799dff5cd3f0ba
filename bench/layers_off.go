//go:build !layers

package main

// layersBuilt reports whether the layer drivers are compiled in. They import
// repro/internal/... and therefore live behind the build tag `layers`: the
// plain build — the timed path, and what `go build` and `go test` compile by
// default — imports nothing but the public package repro.
const layersBuilt = false

func layerMetrics(*tracer, *workload) (map[string]metric, error) { return nil, nil }
