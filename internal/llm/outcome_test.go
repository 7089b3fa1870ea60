package llm

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"ion/internal/obs"
)

// timeoutErr satisfies net.Error with Timeout() == true, the shape
// http clients surface for slow backends.
type timeoutErr struct{}

func (timeoutErr) Error() string   { return "request timed out" }
func (timeoutErr) Timeout() bool   { return true }
func (timeoutErr) Temporary() bool { return true }

func TestOutcomeClassification(t *testing.T) {
	cases := []struct {
		name string
		err  error
		req  Request
		comp Completion
		want string
	}{
		{name: "success", want: OutcomeOK},
		{name: "deadline", err: context.DeadlineExceeded, want: OutcomeTimeout},
		{name: "wrapped deadline", err: fmt.Errorf("calling backend: %w", context.DeadlineExceeded), want: OutcomeTimeout},
		{name: "net timeout", err: timeoutErr{}, want: OutcomeTimeout},
		{name: "wrapped net timeout", err: fmt.Errorf("post: %w", timeoutErr{}), want: OutcomeTimeout},
		{name: "plain error", err: errors.New("status 500"), want: OutcomeError},
		{name: "canceled is error not timeout", err: context.Canceled, want: OutcomeError},
		{
			name: "hit the cap",
			req:  Request{MaxTokens: 100},
			comp: Completion{Usage: Usage{CompletionTokens: 100}},
			want: OutcomeTruncated,
		},
		{
			name: "under the cap",
			req:  Request{MaxTokens: 100},
			comp: Completion{Usage: Usage{CompletionTokens: 99}},
			want: OutcomeOK,
		},
		{
			name: "no cap means no truncation",
			comp: Completion{Usage: Usage{CompletionTokens: 4096}},
			want: OutcomeOK,
		},
	}
	for _, tc := range cases {
		if got := Outcome(tc.err, tc.req, tc.comp); got != tc.want {
			t.Errorf("%s: Outcome = %q, want %q", tc.name, got, tc.want)
		}
	}
}

func TestProvenanceContextKeys(t *testing.T) {
	ctx := context.Background()
	if id := JobIDFrom(ctx); id != "" {
		t.Errorf("bare context job id = %q", id)
	}
	if n := AttemptFrom(ctx); n != 0 {
		t.Errorf("bare context attempt = %d", n)
	}
	ctx = WithAttempt(WithJobID(ctx, "j-1"), 3)
	if id := JobIDFrom(ctx); id != "j-1" {
		t.Errorf("job id = %q, want j-1", id)
	}
	if n := AttemptFrom(ctx); n != 3 {
		t.Errorf("attempt = %d, want 3", n)
	}
}

// outcomeFake returns a canned result per call so the instrumentation
// wrapper can be driven through every outcome.
type outcomeFake struct {
	comp Completion
	err  error
}

func (f *outcomeFake) Name() string { return "fake" }
func (f *outcomeFake) Complete(context.Context, Request) (Completion, error) {
	return f.comp, f.err
}

// TestInstrumentOutcomeLabels drives the instrumented client through a
// success, a truncation, a timeout, and an error, and checks the
// request counter carries each as its own outcome label.
func TestInstrumentOutcomeLabels(t *testing.T) {
	reg := obs.NewRegistry()
	fake := &outcomeFake{}
	client := Instrument(fake, reg)
	ctx := context.Background()

	fake.comp = Completion{Content: "fine", Usage: Usage{PromptTokens: 5, CompletionTokens: 7}}
	client.Complete(ctx, Request{})
	fake.comp = Completion{Usage: Usage{CompletionTokens: 64}}
	client.Complete(ctx, Request{MaxTokens: 64})
	fake.comp, fake.err = Completion{}, context.DeadlineExceeded
	client.Complete(ctx, Request{})
	fake.err = errors.New("boom")
	client.Complete(ctx, Request{})

	got := map[string]float64{}
	var promptTokens, completionTokens float64
	for _, s := range reg.Gather() {
		switch s.Name {
		case "ion_llm_requests_total":
			for _, l := range s.Labels {
				if l.Key == "outcome" {
					got[l.Value] += s.Value
				}
			}
		case "ion_llm_tokens_total":
			for _, l := range s.Labels {
				if l.Key == "kind" && l.Value == "prompt" {
					promptTokens += s.Value
				}
				if l.Key == "kind" && l.Value == "completion" {
					completionTokens += s.Value
				}
			}
		}
	}
	for _, outcome := range []string{OutcomeOK, OutcomeTruncated, OutcomeTimeout, OutcomeError} {
		if got[outcome] != 1 {
			t.Errorf("outcome %q count = %v, want 1 (all: %v)", outcome, got[outcome], got)
		}
	}
	// Token usage is recorded for successes — including the truncated
	// one, whose partial content still cost real tokens.
	if promptTokens != 5 || completionTokens != 7+64 {
		t.Errorf("token counters = %v prompt / %v completion, want 5 / 71", promptTokens, completionTokens)
	}
}
