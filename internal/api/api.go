// Package api is the JSON format and error vocabulary of the /v1 HTTP
// surface, shared by touchserved (internal/server) and touchrouter's
// HTTP front (internal/router): the request and response shapes, the
// error codes and their HTTP statuses, the body decoder and the row and
// name validation. One copy is what keeps a routed answer byte-identical
// to a direct one — field order and omitempty placement are part of the
// contract. Query is the transport-neutral read both fronts of both
// programs decode into, from JSON or from a wire frame.
package api

import (
	"cmp"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"slices"

	"touch"
	"touch/internal/wire"
)

// Error codes carried in the JSON error body and the wire error frame.
// Every non-2xx response has the shape {"error":{"code":"...","message":"..."}}
// so clients can branch on machine-readable codes instead of message text.
const (
	CodeBadRequest     = "bad_request"        // malformed JSON, missing fields
	CodeInvalidBox     = "invalid_box"        // NaN/Inf/inverted box coordinates
	CodeInvalidPoint   = "invalid_point"      // NaN point coordinates
	CodeInvalidK       = "invalid_k"          // kNN k < 1
	CodeInvalidEps     = "invalid_eps"        // negative join distance
	CodeInvalidName    = "invalid_name"       // dataset name outside [A-Za-z0-9._-]
	CodeUnknownDataset = "unknown_dataset"    // no catalog entry with that name
	CodeBuilding       = "building"           // first index version not ready yet
	CodeBodyTooLarge   = "body_too_large"     // request body over the cap
	CodeResultTooLarge = "result_too_large"   // join pair set over the response cap
	CodeUnsupported    = "unsupported_type"   // content type not JSON or text
	CodeOverload       = "overload"           // admission: too many in-flight
	CodeTimeout        = "timeout"            // request exceeded its budget
	CodeClientClosed   = "client_closed"      // client disconnected mid-request
	CodeDraining       = "draining"           // graceful shutdown in progress
	CodeNotFound       = "not_found"          // unknown route
	CodeMethod         = "method_not_allowed" // wrong method for the route
	CodeIDExhausted    = "id_space_exhausted" // PATCH insert would overflow object IDs
	CodeInternal       = "internal"
	CodeNoBackend      = "no_backend"   // router: every ring owner unreachable
	CodeNotRoutable    = "not_routable" // router: operation not proxied (load, delete)
)

// StatusClientClosed is nginx's non-standard 499 "client closed
// request" — recorded so disconnects are distinguishable from server
// errors in response metrics.
const StatusClientClosed = 499

// Status is the HTTP status of an error code. It doubles as the metrics
// classification of wire errors, and maps a code a backend sent over the
// wire back to the status the backend itself would have answered.
// no_backend, like any code outside the vocabulary (only an upstream can
// send one), is 502.
func Status(code string) int {
	switch code {
	case CodeBadRequest, CodeInvalidBox, CodeInvalidPoint, CodeInvalidK, CodeInvalidEps, CodeInvalidName:
		return http.StatusBadRequest
	case CodeUnknownDataset, CodeNotFound:
		return http.StatusNotFound
	case CodeMethod:
		return http.StatusMethodNotAllowed
	case CodeBodyTooLarge:
		return http.StatusRequestEntityTooLarge
	case CodeUnsupported:
		return http.StatusUnsupportedMediaType
	case CodeResultTooLarge, CodeIDExhausted:
		return http.StatusUnprocessableEntity
	case CodeOverload:
		return http.StatusTooManyRequests
	case CodeBuilding, CodeTimeout, CodeDraining:
		return http.StatusServiceUnavailable
	case CodeClientClosed:
		return StatusClientClosed
	case CodeInternal:
		return http.StatusInternalServerError
	case CodeNotRoutable:
		return http.StatusNotImplemented
	}
	return http.StatusBadGateway
}

// Error is an error answer before it is bound to a transport: HTTP
// writes it as the JSON error body under Status(Code), the wire as an
// error frame.
type Error struct {
	Code    string `json:"code"`
	Message string `json:"message"`
}

func (e *Error) Error() string { return e.Code + ": " + e.Message }

// Errorf builds an Error with a formatted message.
func Errorf(code, format string, args ...any) *Error {
	return &Error{Code: code, Message: fmt.Sprintf(format, args...)}
}

// ErrorBody is the JSON envelope of every error response.
type ErrorBody struct {
	Error Error `json:"error"`
}

// WriteJSON writes body as the JSON response with the given status.
func WriteJSON(w http.ResponseWriter, status int, body any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	_ = enc.Encode(body) // write errors mean a gone client; nothing to do
}

// WriteError writes e under its status. Answers a client should simply
// retry — still building, over budget, overloaded — carry Retry-After.
func WriteError(w http.ResponseWriter, e *Error) {
	switch e.Code {
	case CodeBuilding, CodeTimeout, CodeOverload:
		w.Header().Set("Retry-After", "1")
	}
	WriteJSON(w, Status(e.Code), ErrorBody{Error: *e})
}

// DecodeJSON decodes the request body as exactly one JSON document.
func DecodeJSON(r *http.Request, into any) *Error {
	dec := json.NewDecoder(r.Body)
	err := dec.Decode(into)
	if err == nil && dec.More() {
		err = errors.New("request body has trailing data after the JSON document")
	}
	if err != nil {
		return DecodeError(err)
	}
	return nil
}

// DecodeError classifies a request-decoding failure: an over-cap body
// (413, from http.MaxBytesReader), an invalid dataset box (invalid_box)
// or plain malformed input (bad_request).
func DecodeError(err error) *Error {
	var tooLarge *http.MaxBytesError
	switch {
	case errors.As(err, &tooLarge):
		return Errorf(CodeBodyTooLarge, "request body exceeds the %d-byte cap", tooLarge.Limit)
	case errors.Is(err, touch.ErrInvalidBox):
		return Errorf(CodeInvalidBox, "%v", err)
	default:
		return Errorf(CodeBadRequest, "decoding request: %v", err)
	}
}

// ValidName reports whether a dataset name is servable: 1-128 chars of
// [A-Za-z0-9._-], which keeps names filesystem- and metrics-label-safe.
func ValidName(name string) bool {
	if len(name) == 0 || len(name) > 128 {
		return false
	}
	for i := 0; i < len(name); i++ {
		c := name[i]
		switch {
		case 'a' <= c && c <= 'z', 'A' <= c && c <= 'Z', '0' <= c && c <= '9', c == '.', c == '_', c == '-':
		default:
			return false
		}
	}
	return true
}

// Boxes converts JSON rows of [minX minY minZ maxX maxY maxZ] into
// boxes; what names a row in the error ("box", "insert"). Only the row
// width is checked here — coordinate hardening is touch.DatasetFromBoxes.
func Boxes(rows [][]float64, what string) ([]touch.Box, *Error) {
	boxes := make([]touch.Box, len(rows))
	for i, row := range rows {
		if len(row) != 6 {
			return nil, Errorf(CodeInvalidBox,
				"%s %d: want 6 numbers [minX minY minZ maxX maxY maxZ], got %d", what, i, len(row))
		}
		boxes[i] = touch.Box{
			Min: touch.Point{row[0], row[1], row[2]},
			Max: touch.Point{row[3], row[4], row[5]},
		}
	}
	return boxes, nil
}

// --- query ----------------------------------------------------------------

// QueryRequest is the JSON body of POST /v1/datasets/{name}/query.
type QueryRequest struct {
	Type  string    `json:"type"` // "range" | "point" | "knn"
	Box   []float64 `json:"box,omitempty"`
	Point []float64 `json:"point,omitempty"`
	K     int       `json:"k,omitempty"`
}

// Query is one single-probe read, whichever transport carried it. Type
// is "range" (Box), "point" (Point) or "knn" (Point, K).
type Query struct {
	Type  string
	Box   touch.Box
	Point touch.Point
	K     int
}

// Query checks the request's shape: a known type with a box or point of
// the right width. Coordinate and k validation is the engine's.
func (r *QueryRequest) Query() (Query, *Error) {
	q := Query{Type: r.Type, K: r.K}
	switch r.Type {
	case "range":
		if len(r.Box) != 6 {
			return q, Errorf(CodeInvalidBox, "range query needs a 6-number box, got %d", len(r.Box))
		}
		q.Box = touch.Box{
			Min: touch.Point{r.Box[0], r.Box[1], r.Box[2]},
			Max: touch.Point{r.Box[3], r.Box[4], r.Box[5]},
		}
	case "point", "knn":
		if len(r.Point) != 3 {
			return q, Errorf(CodeInvalidPoint, "%s query needs a 3-number point, got %d", r.Type, len(r.Point))
		}
		q.Point = touch.Point{r.Point[0], r.Point[1], r.Point[2]}
	default:
		return q, Errorf(CodeBadRequest, "unknown query type %q (want range, point or knn)", r.Type)
	}
	return q, nil
}

// WireQuery decodes an OpRange, OpPoint or OpKNN frame payload. The
// returned name aliases payload.
func WireQuery(op byte, payload []byte) (name []byte, q Query, flags byte, err error) {
	switch op {
	case wire.OpRange:
		q.Type = "range"
		name, q.Box, flags, err = wire.DecodeRangeReq(payload)
	case wire.OpPoint:
		q.Type = "point"
		name, q.Point, flags, err = wire.DecodePointReq(payload)
	default:
		q.Type = "knn"
		name, q.Point, q.K, flags, err = wire.DecodeKNNReq(payload)
	}
	return name, q, flags, err
}

// Neighbor is one kNN result row.
type Neighbor struct {
	ID       touch.ID `json:"id"`
	Distance float64  `json:"distance"`
}

// QueryResponse is the answer to a query.
type QueryResponse struct {
	Dataset   string     `json:"dataset"`
	Version   int64      `json:"version"`
	Type      string     `json:"type"`
	Count     int        `json:"count"`
	IDs       []touch.ID `json:"ids,omitempty"`
	Neighbors []Neighbor `json:"neighbors,omitempty"`
	Trace     *Trace     `json:"trace,omitempty"`
}

// NewQueryResponse renders a query answer: ids for range and point,
// nbrs for knn.
func NewQueryResponse(dataset string, version int64, typ string, ids []touch.ID, nbrs []touch.Neighbor) QueryResponse {
	resp := QueryResponse{Dataset: dataset, Version: version, Type: typ, IDs: ids, Count: len(ids) + len(nbrs)}
	if len(nbrs) > 0 {
		resp.Neighbors = make([]Neighbor, len(nbrs))
		for i, n := range nbrs {
			resp.Neighbors[i] = Neighbor{ID: n.ID, Distance: n.Distance}
		}
	}
	return resp
}

// Trace is the X-Touch-Trace response field: the request's span — phase
// wall times keyed by phase name (zero phases omitted), engine counters,
// cancel cause — under the server-assigned request ID.
type Trace struct {
	RequestID   string           `json:"request_id"`
	PhaseNs     map[string]int64 `json:"phase_ns"`
	Comparisons int64            `json:"comparisons"`
	NodeTests   int64            `json:"node_tests"`
	Filtered    int64            `json:"filtered"`
	Results     int64            `json:"results"`
	Replicas    int64            `json:"replicas"`
	Cancel      string           `json:"cancel"`
}

// --- join -----------------------------------------------------------------

// JoinRequest is the JSON body of POST /v1/datasets/{name}/join. Exactly
// one of Boxes (an inline probe dataset) or Probe (the name of a loaded
// dataset) selects the probe side.
type JoinRequest struct {
	Boxes     [][]float64 `json:"boxes,omitempty"`
	Probe     string      `json:"probe,omitempty"`
	Eps       float64     `json:"eps,omitempty"`
	Workers   int         `json:"workers,omitempty"`
	CountOnly bool        `json:"count_only,omitempty"`
}

// CheckProbeSide rejects a join that names both probe sides, or
// neither: exactly one of a named probe dataset or inline boxes.
func CheckProbeSide(named, inline bool) *Error {
	switch {
	case named && inline:
		return Errorf(CodeBadRequest, "give either inline boxes or a probe name, not both")
	case !named && !inline:
		return Errorf(CodeBadRequest, "give inline boxes or a probe name")
	}
	return nil
}

// JoinStats is the engine's work accounting on a buffered join answer.
type JoinStats struct {
	Comparisons int64 `json:"comparisons"`
	NodeTests   int64 `json:"node_tests"`
	Filtered    int64 `json:"filtered"`
	MemoryBytes int64 `json:"memory_bytes"`
	AssignNs    int64 `json:"assign_ns"`
	JoinNs      int64 `json:"join_ns"`
}

// JoinResponse is the buffered answer to a join.
type JoinResponse struct {
	Dataset      string        `json:"dataset"`
	Version      int64         `json:"version"`
	Probe        string        `json:"probe,omitempty"`
	ProbeVersion int64         `json:"probe_version,omitempty"`
	ProbeObjects int           `json:"probe_objects"`
	Count        int64         `json:"count"`
	Pairs        [][2]touch.ID `json:"pairs,omitempty"`
	Stats        *JoinStats    `json:"stats,omitempty"`
	Trace        *Trace        `json:"trace,omitempty"`
}

// SortedPairs renders pairs in the canonical (indexed, probe) ascending
// order: parallel joins emit in nondeterministic order, but the answer
// is stable and byte-identical to a sorted direct Index result.
func SortedPairs(pairs []touch.Pair) [][2]touch.ID {
	out := make([][2]touch.ID, len(pairs))
	for i, p := range pairs {
		out[i] = [2]touch.ID{p.A, p.B}
	}
	slices.SortFunc(out, func(x, y [2]touch.ID) int {
		return cmp.Or(cmp.Compare(x[0], y[0]), cmp.Compare(x[1], y[1]))
	})
	return out
}

// --- update ---------------------------------------------------------------

// UpdateRequest is the JSON body of PATCH /v1/datasets/{name}: a batch
// of incremental updates against the serving version. Deletes apply
// before inserts, so one batch can replace objects without tombstoning
// its own inserts.
type UpdateRequest struct {
	// Insert holds one [minX minY minZ maxX maxY maxZ] row per new
	// object; IDs are assigned by the server, consecutively.
	Insert [][]float64 `json:"insert,omitempty"`
	// Delete lists object IDs to tombstone. Unknown or already-deleted
	// IDs are skipped silently (idempotent).
	Delete []touch.ID `json:"delete,omitempty"`
}

// UpdateResponse is the answer to an applied update batch.
type UpdateResponse struct {
	Name            string     `json:"name"`
	Version         int64      `json:"version"`
	InsertedIDs     []touch.ID `json:"inserted_ids,omitempty"`
	Deleted         int        `json:"deleted"`
	DeltaInserts    int        `json:"delta_inserts"`
	DeltaTombstones int        `json:"delta_tombstones"`
}
