package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"kwagg"
)

func testServer(t *testing.T) *httptest.Server {
	t.Helper()
	eng, err := kwagg.Open(kwagg.UniversityDB(), nil)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(New(eng))
	t.Cleanup(ts.Close)
	return ts
}

func postJSON(t *testing.T, url string, body interface{}) *http.Response {
	t.Helper()
	raw, _ := json.Marshal(body)
	resp, err := http.Post(url, "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { resp.Body.Close() })
	return resp
}

func decode(t *testing.T, resp *http.Response, v interface{}) {
	t.Helper()
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		t.Fatal(err)
	}
}

func TestHealth(t *testing.T) {
	ts := testServer(t)
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
}

func TestSchemaEndpoint(t *testing.T) {
	ts := testServer(t)
	resp, err := http.Get(ts.URL + "/api/schema")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var body struct {
		Unnormalized bool
		Text, Dot    string
	}
	decode(t, resp, &body)
	if body.Unnormalized || !strings.Contains(body.Text, "Student") || !strings.Contains(body.Dot, "graph ORM") {
		t.Errorf("schema response: %+v", body)
	}
}

func TestQueryEndpoint(t *testing.T) {
	ts := testServer(t)
	resp := postJSON(t, ts.URL+"/api/query", map[string]interface{}{"q": "Green SUM Credit", "k": 1})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var answers []struct {
		Description string
		SQL         string
		Rows        [][]string
	}
	decode(t, resp, &answers)
	if len(answers) != 1 || len(answers[0].Rows) != 2 {
		t.Fatalf("answers: %+v", answers)
	}
	if !strings.Contains(answers[0].SQL, "SUM(") {
		t.Errorf("SQL: %s", answers[0].SQL)
	}
}

func TestQueryEndpointErrors(t *testing.T) {
	ts := testServer(t)
	resp := postJSON(t, ts.URL+"/api/query", map[string]interface{}{"q": ""})
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("empty q: status %d", resp.StatusCode)
	}
	resp = postJSON(t, ts.URL+"/api/query", map[string]interface{}{"q": "Student COUNT"})
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Errorf("bad query: status %d", resp.StatusCode)
	}
	getResp, err := http.Get(ts.URL + "/api/query")
	if err != nil {
		t.Fatal(err)
	}
	defer getResp.Body.Close()
	if getResp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET on POST endpoint: status %d", getResp.StatusCode)
	}
}

func TestSQLEndpoint(t *testing.T) {
	ts := testServer(t)
	resp := postJSON(t, ts.URL+"/api/sql", map[string]string{"sql": "SELECT COUNT(S.Sid) AS n FROM Student S"})
	var body struct {
		Columns []string
		Rows    [][]string
	}
	decode(t, resp, &body)
	if len(body.Rows) != 1 || body.Rows[0][0] != "3" {
		t.Errorf("sql result: %+v", body)
	}
	resp = postJSON(t, ts.URL+"/api/sql", map[string]string{"sql": "SELECT nope"})
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Errorf("bad SQL: status %d", resp.StatusCode)
	}
}

// TestSQLEndpointEmptyRows pins the JSON of an empty answer: "Rows" is [],
// never null, with or without GROUP BY.
func TestSQLEndpointEmptyRows(t *testing.T) {
	ts := testServer(t)
	for _, sql := range []string{
		"SELECT S.Sname FROM Student S WHERE S.Sname = 'nobody'",
		"SELECT S.Sname, COUNT(S.Sid) AS n FROM Student S WHERE S.Sname = 'nobody' GROUP BY S.Sname",
	} {
		resp := postJSON(t, ts.URL+"/api/sql", map[string]string{"sql": sql})
		var body map[string]json.RawMessage
		decode(t, resp, &body)
		if got := string(body["Rows"]); got != "[]" {
			t.Errorf("%s: Rows = %s, want []", sql, got)
		}
	}
}

func TestSQAKEndpoint(t *testing.T) {
	ts := testServer(t)
	resp := postJSON(t, ts.URL+"/api/sqak", map[string]string{"q": "Green SUM Credit"})
	var body struct {
		SQL  string
		Rows [][]string
		NA   string
	}
	decode(t, resp, &body)
	if body.NA != "" || len(body.Rows) != 1 {
		t.Fatalf("SQAK response: %+v", body)
	}
	// A query SQAK cannot express reports NA, not an HTTP error.
	resp = postJSON(t, ts.URL+"/api/sqak", map[string]string{"q": "COUNT Course SUM Credit"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("NA should be 200: %d", resp.StatusCode)
	}
	body.NA = ""
	decode(t, resp, &body)
	if !strings.Contains(body.NA, "aggregate") {
		t.Errorf("NA note: %+v", body)
	}
}

func TestExplainEndpoint(t *testing.T) {
	ts := testServer(t)
	resp, err := http.Get(ts.URL + "/api/explain?q=" + strings.ReplaceAll("Green SUM Credit", " ", "%20"))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var body struct{ Explanation string }
	decode(t, resp, &body)
	if !strings.Contains(body.Explanation, "disambiguation") {
		t.Errorf("explanation: %q", body.Explanation)
	}
	bad, err := http.Get(ts.URL + "/api/explain?q=Green%20SUM%20Credit&i=notanum")
	if err != nil {
		t.Fatal(err)
	}
	defer bad.Body.Close()
	if bad.StatusCode != http.StatusBadRequest {
		t.Errorf("bad i: status %d", bad.StatusCode)
	}
}

func TestStatsEndpoint(t *testing.T) {
	ts := testServer(t)
	// Serve one query first so the counters have something to show.
	if resp := postJSON(t, ts.URL+"/api/query", map[string]interface{}{"q": "Green SUM Credit", "k": 1}); resp.StatusCode != http.StatusOK {
		t.Fatalf("query status %d", resp.StatusCode)
	}
	resp, err := http.Get(ts.URL + "/api/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stats status %d", resp.StatusCode)
	}
	var body struct {
		Cache struct {
			Hits   uint64 `json:"hits"`
			Misses uint64 `json:"misses"`
			Size   int    `json:"size"`
		} `json:"cache"`
		AnswerCache struct {
			Misses uint64 `json:"misses"`
		} `json:"answer_cache"`
		Workers int `json:"workers"`
		Server  struct {
			Requests uint64 `json:"requests"`
			InFlight int64  `json:"in_flight"`
			Rejected uint64 `json:"rejected"`
			Timeouts uint64 `json:"timeouts"`
		} `json:"server"`
	}
	decode(t, resp, &body)
	if body.Cache.Misses != 1 || body.Cache.Size != 1 {
		t.Errorf("cache stats: %+v", body.Cache)
	}
	if body.AnswerCache.Misses != 1 {
		t.Errorf("answer cache stats: %+v", body.AnswerCache)
	}
	if body.Workers < 1 {
		t.Errorf("workers = %d", body.Workers)
	}
	// The /api/stats request itself is counted, so requests >= 2.
	if body.Server.Requests < 2 || body.Server.Rejected != 0 || body.Server.Timeouts != 0 {
		t.Errorf("server stats: %+v", body.Server)
	}
	if post := postJSON(t, ts.URL+"/api/stats", map[string]string{}); post.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("POST on stats: status %d", post.StatusCode)
	}
}

func TestRequestTimeout(t *testing.T) {
	eng, err := kwagg.Open(kwagg.UniversityDB(), nil)
	if err != nil {
		t.Fatal(err)
	}
	srv := NewWith(eng, Config{Timeout: 1 * time.Nanosecond})
	ts := httptest.NewServer(srv)
	defer ts.Close()
	resp := postJSON(t, ts.URL+"/api/query", map[string]interface{}{"q": "Green SUM Credit", "k": 1})
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504", resp.StatusCode)
	}
	if n := srv.timeouts.Value(); n != 1 {
		t.Errorf("timeouts counter = %d, want 1", n)
	}
}

func TestConcurrencyLimit(t *testing.T) {
	eng, err := kwagg.Open(kwagg.UniversityDB(), nil)
	if err != nil {
		t.Fatal(err)
	}
	srv := NewWith(eng, Config{MaxConcurrent: 1})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	// Occupy the only slot so the next request is deterministically rejected.
	srv.sem <- struct{}{}
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503", resp.StatusCode)
	}
	if n := srv.rejected.Value(); n != 1 {
		t.Errorf("rejected counter = %d, want 1", n)
	}
	<-srv.sem

	// With the slot free the same request succeeds.
	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("status %d after freeing the slot", resp.StatusCode)
	}
}

// TestConcurrentQueriesMatchSerial is the HTTP-level stress gate: 100+
// goroutines of mixed identical/distinct queries against one server must all
// get exactly the response body the serial path produced. Run with -race.
func TestConcurrentQueriesMatchSerial(t *testing.T) {
	eng, err := kwagg.Open(kwagg.UniversityDB(), nil)
	if err != nil {
		t.Fatal(err)
	}
	// Unlimited concurrency: the point is racing the engine, not testing 503s.
	ts := httptest.NewServer(NewWith(eng, Config{MaxConcurrent: -1}))
	defer ts.Close()

	queries := []string{
		"Green SUM Credit",
		"COUNT Student",
		"AVG Credit",
		"COUNT Student GROUPBY Course",
		"MAX Credit",
	}
	fetch := func(q string) (string, int, error) {
		raw, _ := json.Marshal(map[string]interface{}{"q": q, "k": 3})
		resp, err := http.Post(ts.URL+"/api/query", "application/json", bytes.NewReader(raw))
		if err != nil {
			return "", 0, err
		}
		defer resp.Body.Close()
		var buf bytes.Buffer
		if _, err := buf.ReadFrom(resp.Body); err != nil {
			return "", 0, err
		}
		return buf.String(), resp.StatusCode, nil
	}

	want := make(map[string]string, len(queries))
	for _, q := range queries {
		body, code, err := fetch(q)
		if err != nil || code != http.StatusOK {
			t.Fatalf("serial %s: status %d, err %v", q, code, err)
		}
		want[q] = body
	}

	const goroutines = 120
	const iters = 3
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				q := queries[(g+i)%len(queries)]
				body, code, err := fetch(q)
				if err != nil {
					t.Errorf("concurrent %s: %v", q, err)
					return
				}
				if code != http.StatusOK {
					t.Errorf("concurrent %s: status %d", q, code)
					return
				}
				if body != want[q] {
					t.Errorf("concurrent %s diverged from serial response", q)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}
