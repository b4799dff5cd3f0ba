package repro

import (
	"reflect"
	"testing"

	"repro/internal/trace"
)

// TestReportMirrorsTraceResult keeps fromOutcome — the one field copy left
// between an engine and the caller — from rotting. Every engine fills
// trace.Result directly, so a field added there and forgotten here would be
// dropped in silence (the class of bug PR 18 found in Experiment options and
// PR 19 in the `"informed": -1` round records). The test walks both sides by
// reflection: each exported field of trace.Result must have a same-named
// field on the public Report (Result's fields promoted), and vice versa,
// recursively through the element structs; and a trace.Result with every
// field set must come out of fromOutcome with every field set.
func TestReportMirrorsTraceResult(t *testing.T) {
	// publicOnly lists the public fields with no internal counterpart, each
	// with the reason it has none.
	publicOnly := map[string]bool{
		// The embedded struct itself; its fields are walked as promoted.
		"Report.Result": true,
		// Backs the Snapshot() accessor: Run fills it from the registry the
		// caller passed to WithTelemetry, not from the engine's result.
		"Report.snapshot": true,
	}

	mirror(t, "Report", reflect.TypeOf(trace.Result{}), reflect.TypeOf(Report{}), publicOnly)

	var full trace.Result
	fill(reflect.ValueOf(&full).Elem())
	requireSet(t, "Report", reflect.ValueOf(fromOutcome(full)), publicOnly)
}

// fields maps a struct's fields by name, promoting embedded structs.
func fields(typ reflect.Type) map[string]reflect.StructField {
	out := map[string]reflect.StructField{}
	for i := 0; i < typ.NumField(); i++ {
		f := typ.Field(i)
		out[f.Name] = f
		if f.Anonymous {
			for name, pf := range fields(f.Type) {
				out[name] = pf
			}
		}
	}
	return out
}

// elemStruct unwraps slices down to a struct type, if there is one.
func elemStruct(typ reflect.Type) (reflect.Type, bool) {
	for typ.Kind() == reflect.Slice {
		typ = typ.Elem()
	}
	return typ, typ.Kind() == reflect.Struct
}

// mirror fails for every field one side has and the other lacks, descending
// into struct-typed (and slice-of-struct-typed) fields.
func mirror(t *testing.T, path string, internal, public reflect.Type, publicOnly map[string]bool) {
	t.Helper()
	in, pub := fields(internal), fields(public)
	for name, f := range in {
		pf, ok := pub[name]
		if !ok {
			t.Errorf("%s: %s.%s has no public counterpart — fromOutcome drops it", path, internal, name)
			continue
		}
		is, iok := elemStruct(f.Type)
		ps, pok := elemStruct(pf.Type)
		if iok != pok {
			t.Errorf("%s.%s: %s vs %s", path, name, f.Type, pf.Type)
		} else if iok {
			mirror(t, path+"."+name, is, ps, publicOnly)
		}
	}
	for name := range pub {
		if _, ok := in[name]; !ok && !publicOnly[path+"."+name] {
			t.Errorf("%s.%s has no counterpart in %s — nothing can fill it", path, name, internal)
		}
	}
}

// fill sets every settable field to a non-zero value.
func fill(v reflect.Value) {
	switch v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			fill(v.Field(i))
		}
	case reflect.Slice:
		v.Set(reflect.MakeSlice(v.Type(), 1, 1))
		fill(v.Index(0))
	case reflect.Map:
		v.Set(reflect.MakeMap(v.Type()))
		k, e := reflect.New(v.Type().Key()).Elem(), reflect.New(v.Type().Elem()).Elem()
		fill(k)
		fill(e)
		v.SetMapIndex(k, e)
	case reflect.String:
		v.SetString("x")
	case reflect.Bool:
		v.SetBool(true)
	case reflect.Int, reflect.Int64:
		v.SetInt(7)
	case reflect.Uint32, reflect.Uint64:
		v.SetUint(7)
	case reflect.Float64:
		v.SetFloat(0.5)
	default:
		panic("fill: unhandled kind " + v.Kind().String() + " — extend the test")
	}
}

// requireSet fails for every zero field of v, descending like mirror.
func requireSet(t *testing.T, path string, v reflect.Value, skip map[string]bool) {
	t.Helper()
	for i := 0; i < v.NumField(); i++ {
		f, name := v.Field(i), path+"."+v.Type().Field(i).Name
		switch {
		case f.Kind() == reflect.Struct:
			requireSet(t, path, f, skip) // the embedded Result
		case skip[name]:
		case f.IsZero():
			t.Errorf("%s is zero after fromOutcome of a fully set trace.Result", name)
		case f.Kind() == reflect.Slice && f.Index(0).Kind() == reflect.Struct:
			requireSet(t, name, f.Index(0), skip)
		}
	}
}
