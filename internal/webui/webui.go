// Package webui serves a completed diagnosis over HTTP: the front-end
// of the paper's Figure 1 — the report with its per-issue modals plus
// the message window through which the user asks follow-up questions.
// Everything is stdlib net/http; the page is self-contained HTML with a
// small inline script that talks to the JSON chat endpoint.
package webui

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strings"

	"ion/internal/ion"
	"ion/internal/jobs"
	"ion/internal/llm"
	"ion/internal/report"
)

// maxAskBody caps /api/ask request bodies; oversized payloads get 413.
const maxAskBody = 1 << 20

// Server wires a report and a chat session behind an http.Handler.
type Server struct {
	report  *ion.Report
	session *ion.Session
}

// New builds a Server for the report. The client backs the chat
// endpoint.
func New(client llm.Client, rep *ion.Report) (*Server, error) {
	if rep == nil || client == nil {
		return nil, fmt.Errorf("webui: report and client are required")
	}
	session, err := ion.NewSession(client, rep)
	if err != nil {
		return nil, err
	}
	return &Server{report: rep, session: session}, nil
}

// Handler returns the HTTP routes:
//
//	GET  /            the diagnosis page (HTML, with the chat box)
//	GET  /api/report  the report as JSON
//	POST /api/ask     {"question": "..."} -> {"answer": "..."}
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/", s.handleIndex)
	mux.HandleFunc("/api/report", s.handleReport)
	mux.HandleFunc("/api/ask", s.handleAsk)
	return mux
}

func (s *Server) handleIndex(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/" {
		http.NotFound(w, r)
		return
	}
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	var page strings.Builder
	if err := report.WriteHTML(&page, s.report); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	// Inject the chat box before </body>.
	html := strings.Replace(page.String(), "</body>", chatWidget+"</body>", 1)
	fmt.Fprint(w, html)
}

func (s *Server) handleReport(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(s.report); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

// askRequest/askResponse are the chat wire types.
type askRequest struct {
	Question string `json:"question"`
}

type askResponse struct {
	Answer string `json:"answer"`
}

// readJSON decodes the request body into v with the body capped at
// maxBytes, writing the appropriate error response (413 for oversized
// bodies, 400 otherwise) and returning false on failure.
func readJSON(w http.ResponseWriter, r *http.Request, maxBytes int64, v any) bool {
	r.Body = http.MaxBytesReader(w, r.Body, maxBytes)
	if err := json.NewDecoder(r.Body).Decode(v); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			http.Error(w, "request body too large", http.StatusRequestEntityTooLarge)
			return false
		}
		http.Error(w, "bad request: "+err.Error(), http.StatusBadRequest)
		return false
	}
	return true
}

func (s *Server) handleAsk(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	serveAsk(w, r, func() (*ion.Session, error) { return s.session, nil })
}

// serveAsk answers one chat question against the session open returns:
// 400 for an empty question, 413 past maxAskBody, 409 while a job's
// report is not ready. Questions on one session are answered in turn;
// nothing here serializes different sessions.
func serveAsk(w http.ResponseWriter, r *http.Request, open func() (*ion.Session, error)) {
	var req askRequest
	if !readJSON(w, r, maxAskBody, &req) {
		return
	}
	if strings.TrimSpace(req.Question) == "" {
		http.Error(w, "bad request: empty question", http.StatusBadRequest)
		return
	}
	session, err := open()
	if errors.Is(err, jobs.ErrNotDone) {
		http.Error(w, err.Error(), http.StatusConflict)
		return
	}
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	answer, err := session.Ask(r.Context(), req.Question)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(askResponse{Answer: answer})
}

// chatWidget is the message window of the paper's front end, posting
// to the single-report ask endpoint. The job server renders the same
// widget against its per-job endpoints via chatWidgetFor.
var chatWidget = chatWidgetFor("/api/ask")

// chatWidgetFor renders the message window against an ask endpoint.
func chatWidgetFor(askURL string) string {
	return strings.ReplaceAll(chatWidgetTmpl, "__ASK_URL__", askURL)
}

const chatWidgetTmpl = `
<section id="chat" style="margin-top:2rem;border-top:2px solid #ddd;padding-top:1rem">
<h2>Ask about this diagnosis</h2>
<div id="chat-log" style="white-space:pre-wrap;background:#fafafa;border:1px solid #ddd;border-radius:6px;padding:.8rem;min-height:4rem;max-height:24rem;overflow-y:auto"></div>
<form id="chat-form" style="display:flex;gap:.5rem;margin-top:.6rem">
  <input id="chat-q" type="text" placeholder="e.g. which rank causes the imbalance?" style="flex:1;padding:.5rem;border:1px solid #ccc;border-radius:6px">
  <button type="submit" style="padding:.5rem 1rem;border:0;border-radius:6px;background:#3274b5;color:#fff;cursor:pointer">Ask</button>
</form>
<script>
document.getElementById("chat-form").addEventListener("submit", async function(e) {
  e.preventDefault();
  var q = document.getElementById("chat-q");
  var log = document.getElementById("chat-log");
  var question = q.value.trim();
  if (!question) return;
  log.textContent += "you> " + question + "\n";
  q.value = "";
  try {
    var resp = await fetch("__ASK_URL__", {
      method: "POST",
      headers: {"Content-Type": "application/json"},
      body: JSON.stringify({question: question})
    });
    if (!resp.ok) throw new Error(await resp.text());
    var data = await resp.json();
    log.textContent += "ion> " + data.answer + "\n\n";
  } catch (err) {
    log.textContent += "error: " + err + "\n\n";
  }
  log.scrollTop = log.scrollHeight;
});
</script>
</section>
`
