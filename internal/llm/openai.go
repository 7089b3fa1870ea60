package llm

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"time"
)

// OpenAIConfig configures the OpenAI-compatible HTTP client. Any
// endpoint implementing POST {BaseURL}/chat/completions works (OpenAI,
// vLLM, llama.cpp server, LM Studio, ...).
type OpenAIConfig struct {
	BaseURL string // e.g. "https://api.openai.com/v1" or "http://localhost:8000/v1"
	APIKey  string // bearer token; empty for unauthenticated local servers
	Model   string // default model when the request does not set one
}

// The client's fixed policy: a transient failure (429 or 5xx) is retried
// maxRetries times, the client gives up on a call after clientTimeout,
// and each file a request attaches is inlined into the prompt up to
// maxInlineBytes, emulating Assistants-API file access for plain chat
// endpoints.
const (
	maxRetries     = 3
	clientTimeout  = 120 * time.Second
	maxInlineBytes = 256 << 10
)

// retryBackoff is the wait before the first retry, doubled per attempt.
// It is a variable only so tests can shorten it.
var retryBackoff = 500 * time.Millisecond

// OpenAI is an OpenAI-compatible chat-completions client.
type OpenAI struct {
	cfg    OpenAIConfig
	client *http.Client
}

// NewOpenAI returns a client for cfg; an empty Model defaults to
// "gpt-4-1106-preview".
func NewOpenAI(cfg OpenAIConfig) (*OpenAI, error) {
	if cfg.BaseURL == "" {
		return nil, fmt.Errorf("llm: OpenAI BaseURL is required")
	}
	if cfg.Model == "" {
		cfg.Model = "gpt-4-1106-preview"
	}
	return &OpenAI{cfg: cfg, client: &http.Client{Timeout: clientTimeout}}, nil
}

// Name implements Client.
func (c *OpenAI) Name() string { return "openai" }

// wire types for the chat-completions protocol.
type chatRequest struct {
	Model       string    `json:"model"`
	Messages    []Message `json:"messages"`
	Temperature float64   `json:"temperature"`
	MaxTokens   int       `json:"max_tokens,omitempty"`
}

type chatResponse struct {
	Model   string `json:"model"`
	Choices []struct {
		Message      Message `json:"message"`
		FinishReason string  `json:"finish_reason"`
	} `json:"choices"`
	Usage struct {
		PromptTokens     int `json:"prompt_tokens"`
		CompletionTokens int `json:"completion_tokens"`
	} `json:"usage"`
	Error *struct {
		Message string `json:"message"`
		Type    string `json:"type"`
	} `json:"error"`
}

// Complete implements Client by POSTing to /chat/completions with
// retry on 429/5xx.
func (c *OpenAI) Complete(ctx context.Context, req Request) (Completion, error) {
	model := req.Model
	if model == "" {
		model = c.cfg.Model
	}
	messages := req.Messages
	if len(req.Files) > 0 {
		attach, err := inlineFiles(req.Files)
		if err != nil {
			return Completion{}, err
		}
		messages = append(append([]Message(nil), messages...), Message{
			Role:    RoleUser,
			Content: attach,
		})
	}
	body, err := json.Marshal(chatRequest{
		Model:       model,
		Messages:    messages,
		Temperature: req.Temperature,
		MaxTokens:   req.MaxTokens,
	})
	if err != nil {
		return Completion{}, fmt.Errorf("llm: marshaling chat request: %w", err)
	}

	url := strings.TrimRight(c.cfg.BaseURL, "/") + "/chat/completions"
	var lastErr error
	backoff := retryBackoff
	for attempt := 0; attempt <= maxRetries; attempt++ {
		if attempt > 0 {
			select {
			case <-ctx.Done():
				return Completion{}, fmt.Errorf("llm: %w (last error: %v)", ctx.Err(), lastErr)
			case <-time.After(backoff):
			}
			backoff *= 2
		}
		comp, retryable, err := c.post(ctx, url, body)
		if err == nil {
			return comp, nil
		}
		lastErr = err
		if !retryable {
			return Completion{}, err
		}
	}
	return Completion{}, fmt.Errorf("llm: giving up after %d attempts: %w", maxRetries+1, lastErr)
}

func (c *OpenAI) post(ctx context.Context, url string, body []byte) (Completion, bool, error) {
	httpReq, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return Completion{}, false, fmt.Errorf("llm: building request: %w", err)
	}
	httpReq.Header.Set("Content-Type", "application/json")
	if c.cfg.APIKey != "" {
		httpReq.Header.Set("Authorization", "Bearer "+c.cfg.APIKey)
	}
	resp, err := c.client.Do(httpReq)
	if err != nil {
		return Completion{}, true, fmt.Errorf("llm: POST %s: %w", url, err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(io.LimitReader(resp.Body, 32<<20))
	if err != nil {
		return Completion{}, true, fmt.Errorf("llm: reading response: %w", err)
	}
	if resp.StatusCode != http.StatusOK {
		retryable := resp.StatusCode == http.StatusTooManyRequests || resp.StatusCode >= 500
		return Completion{}, retryable,
			fmt.Errorf("llm: %s returned %d: %s", url, resp.StatusCode, truncate(string(data), 300))
	}
	var cr chatResponse
	if err := json.Unmarshal(data, &cr); err != nil {
		return Completion{}, false, fmt.Errorf("llm: decoding response: %w", err)
	}
	if cr.Error != nil {
		return Completion{}, false, fmt.Errorf("llm: API error: %s", cr.Error.Message)
	}
	if len(cr.Choices) == 0 {
		return Completion{}, false, fmt.Errorf("llm: response has no choices")
	}
	return Completion{
		Content: cr.Choices[0].Message.Content,
		Model:   cr.Model,
		Usage: Usage{
			PromptTokens:     cr.Usage.PromptTokens,
			CompletionTokens: cr.Usage.CompletionTokens,
		},
	}, false, nil
}

// inlineFiles renders file attachments as fenced CSV blocks, truncated
// to maxInlineBytes each.
func inlineFiles(files []string) (string, error) {
	var b strings.Builder
	b.WriteString("Attached data files:\n")
	for _, path := range files {
		f, err := os.Open(path)
		if err != nil {
			return "", fmt.Errorf("llm: opening attachment: %w", err)
		}
		data, err := io.ReadAll(io.LimitReader(f, maxInlineBytes))
		f.Close()
		if err != nil {
			return "", fmt.Errorf("llm: reading attachment %s: %w", path, err)
		}
		fmt.Fprintf(&b, "\n### %s\n```csv\n%s", filepath.Base(path), data)
		if len(data) == maxInlineBytes {
			b.WriteString("\n... (truncated)")
		}
		b.WriteString("\n```\n")
	}
	return b.String(), nil
}

func truncate(s string, n int) string {
	if len(s) <= n {
		return s
	}
	return s[:n] + "..."
}
