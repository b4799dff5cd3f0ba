package scenario

import (
	"context"
	"errors"
	"reflect"
	"testing"
)

const exampleSpec = `{
  "name": "crash wave under loss",
  "n": 2000,
  "rounds": 30,
  "algorithm": "push-pull",
  "seed": 1,
  "events": [
    {"type": "inject", "round": 1, "node": 0, "rumor": 0},
    {"type": "loss", "round": 1, "rate": 0.05, "seed": 7},
    {"type": "crash", "round": 8, "count": 200, "pick_seed": 11},
    {"type": "join", "round": 20, "nodes": [3, 4]}
  ],
  "generators": [
    {"type": "periodic-churn", "start": 5, "period": 10, "count": 20, "down_for": 5, "seed": 13}
  ]
}`

func TestSpecBuildAndRun(t *testing.T) {
	spec, err := ParseSpec([]byte(exampleSpec))
	if err != nil {
		t.Fatal(err)
	}
	sc, cfg, err := spec.Build()
	if err != nil {
		t.Fatal(err)
	}
	if spec.Name != "crash wave under loss" || sc.N != 2000 || sc.Rounds != 30 || sc.Algorithm != AlgoPushPull || cfg.Seed != 1 {
		t.Fatalf("spec fields lost: %+v %+v", sc, cfg)
	}
	// 4 explicit events + 3 crash + 3 join from the generator.
	if len(sc.Events) != 10 {
		t.Fatalf("got %d events, want 10", len(sc.Events))
	}
	res, err := Run(context.Background(), sc, Config{Seed: cfg.Seed, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Rumors[0].LiveInformed == 0 {
		t.Fatal("spec run informed nobody")
	}
	// Spec runs are reproducible.
	again, err := Run(context.Background(), sc, Config{Seed: cfg.Seed, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res, again) {
		t.Fatal("same spec, same seed, different result")
	}
}

func TestParseSpecRejectsUnknownFields(t *testing.T) {
	if _, err := ParseSpec([]byte(`{"n": 10, "rounds": 5, "evnets": []}`)); err == nil {
		t.Fatal("typoed field should be rejected")
	}
	if _, err := ParseSpec([]byte(`not json`)); err == nil {
		t.Fatal("garbage should be rejected")
	}
}

func TestSpecEventErrors(t *testing.T) {
	for name, body := range map[string]string{
		"unknown event type":   `{"n":10,"rounds":5,"events":[{"type":"meteor","round":1}]}`,
		"crash without pick":   `{"n":10,"rounds":5,"events":[{"type":"crash","round":1}]}`,
		"bad rumor id":         `{"n":10,"rounds":5,"events":[{"type":"inject","round":1,"node":0,"rumor":-1}]}`,
		"rumor id past uint32": `{"n":10,"rounds":5,"events":[{"type":"inject","round":1,"node":0,"rumor":4294967296}]}`,
		"wide with corrupt": `{"n":10,"rounds":5,"events":[
			{"type":"inject","round":1,"node":0,"rumor":100},
			{"type":"corrupt","round":2,"nodes":[1],"behavior":"liar"}]}`,
		"unknown generator":    `{"n":10,"rounds":5,"generators":[{"type":"quake","start":1}]}`,
		"flap without nodes":   `{"n":10,"rounds":5,"generators":[{"type":"flap","start":1}]}`,
		"negative round":       `{"n":10,"rounds":5,"events":[{"type":"crash","round":-3,"nodes":[1]}]}`,
		"round past budget":    `{"n":10,"rounds":5,"events":[{"type":"crash","round":9,"nodes":[1]}]}`,
		"unknown adversary":    `{"n":10,"rounds":5,"events":[{"type":"corrupt","round":1,"nodes":[1],"behavior":"gremlin"}]}`,
		"corrupt without pick": `{"n":10,"rounds":5,"events":[{"type":"corrupt","round":1,"behavior":"liar"}]}`,
		"spam rate out of range": `{"n":10,"rounds":5,"events":[
			{"type":"inject","round":1,"node":0,"rumor":0},
			{"type":"corrupt","round":1,"nodes":[1],"behavior":"spammer","rate":1.5}]}`,
		"eclipse victim out of range": `{"n":10,"rounds":5,"events":[
			{"type":"inject","round":1,"node":0,"rumor":0},
			{"type":"corrupt","round":1,"nodes":[1],"behavior":"eclipse","victims":[99]}]}`,
		"infiltrate unknown behavior": `{"n":10,"rounds":5,"generators":[{"type":"infiltrate","start":1,"waves":1,"count":2}]}`,
		"corrupted and crashed same round": `{"n":10,"rounds":5,"events":[
			{"type":"inject","round":1,"node":0,"rumor":0},
			{"type":"corrupt","round":3,"nodes":[4],"behavior":"liar"},
			{"type":"crash","round":3,"nodes":[4]}]}`,
	} {
		spec, err := ParseSpec([]byte(body))
		if err != nil {
			t.Fatalf("%s: parse: %v", name, err)
		}
		_, _, err = spec.Build()
		if err == nil {
			t.Errorf("%s: Build succeeded, want error", name)
			continue
		}
		if !errors.Is(err, ErrSpec) {
			t.Errorf("%s: error %v is not ErrSpec-typed", name, err)
		}
	}
}

// TestSpecCorruptBuilds pins the happy path of the adversarial vocabulary:
// corrupt events and the infiltrate generator expand, validate and run.
func TestSpecCorruptBuilds(t *testing.T) {
	spec, err := ParseSpec([]byte(`{
		"name": "byzantine mix", "n": 300, "rounds": 20, "algorithm": "push-pull", "seed": 3,
		"events": [
			{"type": "inject", "round": 1, "node": 0, "rumor": 0},
			{"type": "corrupt", "round": 2, "count": 10, "pick_seed": 7, "behavior": "liar", "seed": 9},
			{"type": "corrupt", "round": 4, "nodes": [5, 6], "behavior": "eclipse", "victims": [1, 2]},
			{"type": "corrupt", "round": 5, "nodes": [7], "behavior": "stale"},
			{"type": "crash", "round": 6, "nodes": [7]}
		],
		"generators": [
			{"type": "infiltrate", "start": 8, "gap": 3, "waves": 2, "count": 5,
			 "behavior": "spammer", "rate": 0.5, "seed": 11}
		]
	}`))
	if err != nil {
		t.Fatal(err)
	}
	sc, cfg, err := spec.Build()
	if err != nil {
		t.Fatal(err)
	}
	corrupts := 0
	for _, ev := range sc.Events {
		if _, ok := ev.(CorruptAt); ok {
			corrupts++
		}
	}
	if corrupts != 5 { // 3 explicit + 2 infiltrate waves
		t.Fatalf("got %d corrupt events, want 5", corrupts)
	}
	res, err := Run(context.Background(), sc, Config{Seed: cfg.Seed, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.Rumors[0].LiveInformed == 0 {
		t.Fatal("adversarial spec run informed nobody")
	}
}
