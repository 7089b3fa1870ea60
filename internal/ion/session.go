package ion

import (
	"context"
	"fmt"
	"strings"
	"sync"

	"ion/internal/knowledge"
	"ion/internal/llm"
	"ion/internal/prompt"
)

// Session is the interactive interface over a completed diagnosis: the
// user asks free-form questions about the analysis, reasoning, or
// results, and the model answers with the report as context — the
// conversational capability the paper positions as what separates an
// automated expert from a static report. Ask is safe for concurrent
// use: a session answers one question at a time, in order.
type Session struct {
	client  llm.Client
	builder *prompt.Builder
	report  *Report
	// MaxHistory bounds retained turns (pairs); older turns are dropped.
	MaxHistory int
	// contextProvider, when set, selects the context block for each
	// question (e.g. RAG retrieval) instead of the full report text.
	contextProvider func(question string) string

	turn    sync.Mutex // held from prompt through history append
	history []llm.Message
}

// SetContextProvider installs a per-question context selector, the hook
// the rag package uses for retrieval-augmented chat. Passing nil
// restores the default (the full report context).
func (s *Session) SetContextProvider(f func(question string) string) {
	s.contextProvider = f
}

// NewSession opens an interactive session over a report.
func NewSession(client llm.Client, report *Report) (*Session, error) {
	if client == nil {
		return nil, fmt.Errorf("ion: session requires a client")
	}
	if report == nil {
		return nil, fmt.Errorf("ion: session requires a report")
	}
	return &Session{
		client:     client,
		builder:    prompt.NewBuilder(knowledge.NewBase(knowledge.DefaultHyperparams())),
		report:     report,
		MaxHistory: 8,
	}, nil
}

// History returns the conversation so far, after any turn in flight.
func (s *Session) History() []llm.Message {
	s.turn.Lock()
	defer s.turn.Unlock()
	return append([]llm.Message(nil), s.history...)
}

// Ask sends a follow-up question and returns the model's answer.
func (s *Session) Ask(ctx context.Context, question string) (string, error) {
	question = strings.TrimSpace(question)
	if question == "" {
		return "", fmt.Errorf("ion: empty question")
	}
	s.turn.Lock()
	defer s.turn.Unlock()
	contextText := s.report.ContextText()
	if s.contextProvider != nil {
		contextText = s.contextProvider(question)
	}
	req := s.builder.Chat(contextText, s.history, question)
	comp, err := s.client.Complete(ctx, req)
	if err != nil {
		return "", fmt.Errorf("ion: chat completion: %w", err)
	}
	s.history = append(s.history,
		llm.Message{Role: llm.RoleUser, Content: question},
		llm.Message{Role: llm.RoleAssistant, Content: comp.Content},
	)
	if s.MaxHistory > 0 && len(s.history) > 2*s.MaxHistory {
		s.history = s.history[len(s.history)-2*s.MaxHistory:]
	}
	return comp.Content, nil
}
