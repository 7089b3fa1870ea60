package webui

import (
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"ion/internal/obs/flight"
)

// flightDisabled answers the incident endpoints when no recorder is
// wired in (WithFlight was not called).
func (s *JobServer) flightDisabled(w http.ResponseWriter) bool {
	if s.flight != nil {
		return false
	}
	s.errorJSON(w, http.StatusNotFound, "flight recorder disabled: start ionserve with -incident-dir")
	return true
}

// incidentsResponse is the GET /api/incidents wire type.
type incidentsResponse struct {
	// Incidents are the bundles on disk, newest first.
	Incidents []flight.Manifest `json:"incidents"`
}

// handleIncidents lists the incident bundles the recorder holds,
// newest first, each with its manifest (reason, capture time, files,
// ring sizes).
func (s *JobServer) handleIncidents(w http.ResponseWriter, r *http.Request) {
	if s.flightDisabled(w) {
		return
	}
	list := s.flight.List()
	if list == nil {
		list = []flight.Manifest{}
	}
	s.writeJSON(w, http.StatusOK, incidentsResponse{Incidents: list})
}

// handleIncidentDownload streams one bundle's tar.gz. The stored bytes
// are already gzip: a client that accepts gzip gets them verbatim with
// Content-Encoding set (its transparent decode yields the tar — zero
// recompression server-side); anyone else gets the .tar.gz as a file.
func (s *JobServer) handleIncidentDownload(w http.ResponseWriter, r *http.Request) {
	if s.flightDisabled(w) {
		return
	}
	id := r.PathValue("id")
	rc, size, err := s.flight.Open(id)
	if err != nil {
		s.errorJSON(w, http.StatusNotFound, "no such incident")
		return
	}
	defer rc.Close()
	if acceptsGzip(r) {
		w.Header().Set("Content-Encoding", "gzip")
		w.Header().Set("Content-Type", "application/x-tar")
	} else {
		w.Header().Set("Content-Type", "application/gzip")
	}
	w.Header().Set("Content-Length", fmt.Sprint(size))
	w.Header().Set("Content-Disposition", `attachment; filename="`+id+`.tar.gz"`)
	io.Copy(w, rc)
}

// captureRequest is the optional POST /api/debug/capture body.
type captureRequest struct {
	Reason string `json:"reason"`
}

// handleDebugCapture triggers an on-demand incident bundle: the same
// capture a firing alert runs, for "grab me everything right now"
// debugging. Rate limiting still applies (429), as does capture
// singleflighting (409).
func (s *JobServer) handleDebugCapture(w http.ResponseWriter, r *http.Request) {
	if s.flightDisabled(w) {
		return
	}
	reason := "manual"
	if r.ContentLength != 0 {
		var req captureRequest
		if !readJSON(w, r, 4096, &req) {
			return
		}
		if strings.TrimSpace(req.Reason) != "" {
			reason = req.Reason
		}
	}
	m, err := s.flight.Capture(reason)
	switch {
	case errors.Is(err, flight.ErrRateLimited):
		w.Header().Set("Retry-After", strconv.Itoa(int(flight.Cooldown/time.Second)))
		s.errorJSON(w, http.StatusTooManyRequests, err.Error())
		return
	case errors.Is(err, flight.ErrCaptureInFlight):
		s.errorJSON(w, http.StatusConflict, err.Error())
		return
	case err != nil:
		s.errorJSON(w, http.StatusInternalServerError, err.Error())
		return
	}
	s.writeJSON(w, http.StatusOK, m)
}

// errorJSON writes a JSON error body ({"error": msg}) with the given
// status, so API clients never have to parse plain-text errors.
func (s *JobServer) errorJSON(w http.ResponseWriter, status int, msg string) {
	s.writeJSON(w, status, map[string]string{"error": msg})
}

// acceptsGzip reports whether the client advertised gzip support.
func acceptsGzip(r *http.Request) bool {
	return strings.Contains(r.Header.Get("Accept-Encoding"), "gzip")
}

// gzPool recycles gzip writers across /metrics scrapes.
var gzPool = sync.Pool{New: func() any { return gzip.NewWriter(io.Discard) }}

// gzipResponseWriter compresses the response body through a pooled
// gzip.Writer.
type gzipResponseWriter struct {
	http.ResponseWriter
	gz *gzip.Writer
}

func (w *gzipResponseWriter) Write(p []byte) (int, error) { return w.gz.Write(p) }

// withGzip compresses next's response when the client accepts gzip.
// Exposition output is highly repetitive (family names restated per
// series), so scrape payloads shrink by an order of magnitude.
func withGzip(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !acceptsGzip(r) {
			next.ServeHTTP(w, r)
			return
		}
		w.Header().Set("Content-Encoding", "gzip")
		gz := gzPool.Get().(*gzip.Writer)
		gz.Reset(w)
		next.ServeHTTP(&gzipResponseWriter{ResponseWriter: w, gz: gz}, r)
		gz.Close()
		gzPool.Put(gz)
	})
}
