// Package llm defines the language-model client abstraction the ION
// Analyzer talks to, plus concrete clients: an OpenAI-compatible HTTP
// client for real endpoints, and record/replay wrappers for offline,
// deterministic runs. The simulated expert model in internal/expertsim
// implements the same Client interface, so the whole pipeline is
// exercised identically whichever backend is plugged in.
package llm

import "context"

// Role labels a chat message author.
type Role string

// Chat roles.
const (
	RoleSystem    Role = "system"
	RoleUser      Role = "user"
	RoleAssistant Role = "assistant"
)

// Message is one chat turn.
type Message struct {
	Role    Role   `json:"role"`
	Content string `json:"content"`
}

// Request is a completion request. Files lists CSV attachments by path
// (the Assistants-API analogue); clients that cannot upload files inline
// their contents or, like the simulated expert, read them directly.
type Request struct {
	Model       string    `json:"model"`
	Messages    []Message `json:"messages"`
	Files       []string  `json:"files,omitempty"`
	Temperature float64   `json:"temperature"`
	MaxTokens   int       `json:"max_tokens,omitempty"`
	// Metadata carries structured routing hints (issue id, CSV dir).
	Metadata map[string]string `json:"metadata,omitempty"`
}

// Usage reports token accounting for a completion.
type Usage struct {
	PromptTokens     int `json:"prompt_tokens"`
	CompletionTokens int `json:"completion_tokens"`
}

// Total returns the total token count.
func (u Usage) Total() int { return u.PromptTokens + u.CompletionTokens }

// Completion is a model response.
type Completion struct {
	Content string `json:"content"`
	Model   string `json:"model"`
	Usage   Usage  `json:"usage"`
}

// Client produces completions. Implementations must be safe for
// concurrent use: the Analyzer fans out per-issue prompts in parallel.
type Client interface {
	// Complete returns the model's response to the request.
	Complete(ctx context.Context, req Request) (Completion, error)
	// Name identifies the backend for reports ("expertsim", "openai").
	Name() string
}

// EstimateTokens approximates the token count of a text with the usual
// ~4 characters/token heuristic; good enough for usage accounting and
// prompt-size benchmarks.
func EstimateTokens(text string) int {
	n := len(text)
	if n == 0 {
		return 0
	}
	return (n + 3) / 4
}

// PromptTokens estimates the prompt token count of a request.
func PromptTokens(req Request) int {
	total := 0
	for _, m := range req.Messages {
		total += EstimateTokens(m.Content)
	}
	return total
}
