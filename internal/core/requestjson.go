package core

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"

	"modissense/internal/jsonwire"
)

// The search and check-in bodies are the two requests on the hot path, and
// encoding/json's reflective decode of a 50-item check-in batch costs more
// than the rest of the handler around the store write. decodeRequest reads
// either body into a pooled buffer and decodes it with its hand codec
// (internal/wire) into exactly what decodeBody leaves.
//
// A body the hand decoder refuses is decoded again by decodeBody's
// reference, whose outcome stands: every 400 carries encoding/json's message
// (it names the Go types, wire.SearchRequest, wire.CheckinsRequest and
// wire.Checkin), and the reference runs only on the error path.

// requestBody is a request type with a hand decoder of a whole body.
type requestBody interface {
	DecodeJSON(body []byte) error
}

// decodeRequest decodes the body of r into v, as decodeBody would.
func decodeRequest[T any, P interface {
	*T
	requestBody
}](r *http.Request, v P) error {
	bp := bodyBufs.Get().(*[]byte)
	defer releaseBody(bp)
	buf, readErr := jsonwire.ReadBody(r.Body, (*bp)[:0], r.ContentLength, maxPooledBody)
	*bp = buf
	if readErr == nil {
		if v.DecodeJSON(buf) == nil {
			return nil
		}
		var zero T
		*v = zero
	}
	// The reference sees what it would have read off the body: the bytes
	// that arrived, then the read error if there was one.
	var src io.Reader = bytes.NewReader(buf)
	if readErr != nil {
		src = io.MultiReader(src, failingReader{readErr})
	}
	return decodeJSON(src, v)
}

// failingReader is a reader whose every read fails with err.
type failingReader struct{ err error }

func (f failingReader) Read([]byte) (int, error) { return 0, f.err }

// decodeJSON is the reference request decode: encoding/json, unknown fields
// refused.
func decodeJSON(r io.Reader, v any) error {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("core: invalid request body: %w", err)
	}
	return nil
}
