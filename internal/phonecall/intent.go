package phonecall

// The Intent form: a node's call and its payload joined in one value, with
// its own rule for an Exchange — one without content is only its pull half.
// The engine, its seams and every protocol in the module speak the call
// form (ExecCalls); this file keeps the older form as a caller-side adapter
// over it, for the layer benchmarks that still time rounds written this way.

// Intent is a node's initiated communication for one round, payload
// included.
type Intent struct {
	Kind    Kind
	Target  Target
	Payload Message // used for Push and Exchange
}

// PushIntent builds a push intent.
func PushIntent(t Target, m Message) Intent { return Intent{Kind: Push, Target: t, Payload: m} }

// ExchangeIntent builds an exchange (simultaneous push and pull) intent. If
// the payload has no content only the pull half takes place.
func ExchangeIntent(t Target, m Message) Intent { return Intent{Kind: Exchange, Target: t, Payload: m} }

// intentRound runs an Intent-form round as a call-form one: call evaluates
// the intent, demotes a contentless Exchange to a Pull and stages the
// payload, which payload reads back. Both closures are built once, so a
// round through the adapter allocates nothing once staged exists.
type intentRound struct {
	intentOf func(i int) Intent
	staged   []Message
	call     func(i int) Call
	payload  func(i int) Message
}

// ExecRound executes one synchronous round written in the Intent form: it is
// ExecCalls with each intent split into its call and its payload. intentOf
// is invoked once per live node; an Exchange intent whose payload has no
// content is a Pull. responseOf and deliver are those of ExecCalls, under
// the same contract. The first round through ExecRound stages payloads in
// an n-sized array that later ones reuse.
func (net *Network) ExecRound(
	intentOf func(i int) Intent,
	responseOf func(i int) (Message, bool),
	deliver func(i int, inbox []Message),
) RoundReport {
	if intentOf == nil {
		return net.ExecCalls(nil, nil, nil, responseOf, deliver)
	}
	a := net.intents
	if a == nil {
		a = &intentRound{staged: make([]Message, net.n)}
		a.call = func(i int) Call {
			it := a.intentOf(i)
			switch it.Kind {
			case Exchange:
				if !it.Payload.HasContent() {
					return Call{Kind: Pull, Target: it.Target}
				}
				fallthrough
			case Push:
				a.staged[i] = it.Payload
			}
			return Call{Kind: it.Kind, Target: it.Target}
		}
		a.payload = func(i int) Message { return a.staged[i] }
		net.intents = a
	}
	a.intentOf = intentOf
	rep := net.ExecCalls(nil, a.call, a.payload, responseOf, deliver)
	a.intentOf = nil
	return rep
}
