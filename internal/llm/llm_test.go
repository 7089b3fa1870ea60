package llm

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

func sampleRequest() Request {
	return Request{
		Model: "test-model",
		Messages: []Message{
			{Role: RoleSystem, Content: "you are an expert"},
			{Role: RoleUser, Content: "analyze this"},
		},
		Metadata: map[string]string{"ion-issue": "small-io"},
	}
}

func TestEstimateTokens(t *testing.T) {
	if EstimateTokens("") != 0 {
		t.Error("empty string should be 0 tokens")
	}
	if got := EstimateTokens("abcd"); got != 1 {
		t.Errorf("4 chars = %d tokens", got)
	}
	if got := EstimateTokens("abcde"); got != 2 {
		t.Errorf("5 chars = %d tokens (ceil)", got)
	}
	req := sampleRequest()
	if PromptTokens(req) <= 0 {
		t.Error("prompt tokens not positive")
	}
}

func TestUsageTotal(t *testing.T) {
	u := Usage{PromptTokens: 10, CompletionTokens: 5}
	if u.Total() != 15 {
		t.Errorf("total = %d", u.Total())
	}
}

// --- OpenAI client ---

func chatHandler(t *testing.T, reply string, status int) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		t.Helper()
		if r.URL.Path != "/v1/chat/completions" {
			t.Errorf("unexpected path %s", r.URL.Path)
		}
		if status != http.StatusOK {
			w.WriteHeader(status)
			fmt.Fprint(w, `{"error":{"message":"boom"}}`)
			return
		}
		var req chatRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			t.Errorf("bad request body: %v", err)
		}
		resp := map[string]interface{}{
			"model": req.Model,
			"choices": []map[string]interface{}{
				{"message": map[string]string{"role": "assistant", "content": reply}},
			},
			"usage": map[string]int{"prompt_tokens": 11, "completion_tokens": 7},
		}
		if err := json.NewEncoder(w).Encode(resp); err != nil {
			t.Error(err)
		}
	}
}

func TestOpenAIComplete(t *testing.T) {
	var gotAuth string
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/chat/completions", func(w http.ResponseWriter, r *http.Request) {
		gotAuth = r.Header.Get("Authorization")
		chatHandler(t, "diagnosis text", http.StatusOK)(w, r)
	})
	srv := httptest.NewServer(mux)
	defer srv.Close()

	c, err := NewOpenAI(OpenAIConfig{BaseURL: srv.URL + "/v1", APIKey: "sk-test", Model: "m"})
	if err != nil {
		t.Fatal(err)
	}
	comp, err := c.Complete(context.Background(), sampleRequest())
	if err != nil {
		t.Fatal(err)
	}
	if comp.Content != "diagnosis text" {
		t.Errorf("content = %q", comp.Content)
	}
	if comp.Usage.PromptTokens != 11 || comp.Usage.CompletionTokens != 7 {
		t.Errorf("usage = %+v", comp.Usage)
	}
	if gotAuth != "Bearer sk-test" {
		t.Errorf("auth header = %q", gotAuth)
	}
	if c.Name() != "openai" {
		t.Errorf("name = %q", c.Name())
	}
}

func TestOpenAIRetriesOn500(t *testing.T) {
	var calls int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if atomic.AddInt32(&calls, 1) < 3 {
			w.WriteHeader(http.StatusInternalServerError)
			return
		}
		chatHandler(t, "ok after retries", http.StatusOK)(w, r)
	}))
	defer srv.Close()

	defer func(d time.Duration) { retryBackoff = d }(retryBackoff)
	retryBackoff = time.Millisecond
	c, err := NewOpenAI(OpenAIConfig{BaseURL: srv.URL + "/v1"})
	if err != nil {
		t.Fatal(err)
	}
	comp, err := c.Complete(context.Background(), sampleRequest())
	if err != nil {
		t.Fatal(err)
	}
	if comp.Content != "ok after retries" {
		t.Errorf("content = %q", comp.Content)
	}
	if calls != 3 {
		t.Errorf("calls = %d, want 3", calls)
	}
}

func TestOpenAIDoesNotRetryOn400(t *testing.T) {
	var calls int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		atomic.AddInt32(&calls, 1)
		w.WriteHeader(http.StatusBadRequest)
		fmt.Fprint(w, `{"error":{"message":"bad request"}}`)
	}))
	defer srv.Close()

	c, err := NewOpenAI(OpenAIConfig{BaseURL: srv.URL + "/v1"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Complete(context.Background(), sampleRequest()); err == nil {
		t.Fatal("400 should fail")
	}
	if calls != 1 {
		t.Errorf("client retried a 400: %d calls", calls)
	}
}

func TestOpenAIGivesUpAfterRetries(t *testing.T) {
	var calls int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		atomic.AddInt32(&calls, 1)
		w.WriteHeader(http.StatusTooManyRequests)
	}))
	defer srv.Close()
	defer func(d time.Duration) { retryBackoff = d }(retryBackoff)
	retryBackoff = time.Millisecond
	c, err := NewOpenAI(OpenAIConfig{BaseURL: srv.URL + "/v1"})
	if err != nil {
		t.Fatal(err)
	}
	_, err = c.Complete(context.Background(), sampleRequest())
	if err == nil || !strings.Contains(err.Error(), "giving up after 4 attempts") {
		t.Errorf("expected give-up error after 4 attempts, got %v", err)
	}
	if calls != 4 {
		t.Errorf("calls = %d, want 4 (1 + 3 retries)", calls)
	}
}

func TestOpenAIInlinesFiles(t *testing.T) {
	dir := t.TempDir()
	csv := dir + "/POSIX.csv"
	if err := os.WriteFile(csv, []byte("a,b\n1,2\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	var sawAttachment bool
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var req chatRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			t.Error(err)
		}
		for _, m := range req.Messages {
			if strings.Contains(m.Content, "POSIX.csv") && strings.Contains(m.Content, "a,b") {
				sawAttachment = true
			}
		}
		resp := map[string]interface{}{
			"model":   req.Model,
			"choices": []map[string]interface{}{{"message": map[string]string{"role": "assistant", "content": "ok"}}},
		}
		if err := json.NewEncoder(w).Encode(resp); err != nil {
			t.Error(err)
		}
	}))
	defer srv.Close()

	c, err := NewOpenAI(OpenAIConfig{BaseURL: srv.URL + "/v1"})
	if err != nil {
		t.Fatal(err)
	}
	req := sampleRequest()
	req.Files = []string{csv}
	if _, err := c.Complete(context.Background(), req); err != nil {
		t.Fatal(err)
	}
	if !sawAttachment {
		t.Error("file contents not inlined into the prompt")
	}
}

func TestOpenAIRequiresBaseURL(t *testing.T) {
	if _, err := NewOpenAI(OpenAIConfig{}); err == nil {
		t.Error("missing BaseURL accepted")
	}
}
