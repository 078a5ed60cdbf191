// Package slot owns how a gpuperf cache entry sits on disk. The
// calibration cache, the result store's disk tier and the submission
// store each keep one JSON file per entry, a slot, in this one format.
//
// A slot file holds the envelope {"version","key","body"}. The
// version names the body's form, and the key names the entry the
// body was stored under, so a slot renamed by hand or written by a
// build with another form never serves a foreign body. Write puts a
// slot in place atomically: it writes a temporary file in the same
// directory and renames it over the slot, so a reader never sees a
// partial write and a crash never corrupts an existing slot. Read
// treats every failure as a miss, never an error: the caller
// recomputes, and its next Write repairs the slot.
package slot

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
)

// envelope is a slot file's content.
type envelope[B any] struct {
	Version int    `json:"version"`
	Key     string `json:"key"`
	Body    B      `json:"body"`
}

// Path returns the file of slot name under dir.
func Path(dir, name string) string {
	return filepath.Join(dir, name+".json")
}

// Write stores body, marshaled as JSON, in slot name under dir with
// the given version and key, creating dir if needed. The file gets
// mode perm. A []byte body is stored as a base64 string.
func Write(dir, name string, version int, key string, body any, perm os.FileMode) (err error) {
	defer func() {
		if err != nil {
			err = fmt.Errorf("slot: write %s: %w", name, err)
		}
	}()
	data, err := json.Marshal(envelope[any]{Version: version, Key: key, Body: body})
	if err != nil {
		return err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	tmp, err := os.CreateTemp(dir, name+".json.tmp-*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	_, err = tmp.Write(data)
	if err == nil {
		err = tmp.Chmod(perm)
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	return os.Rename(tmp.Name(), Path(dir, name))
}

// Read decodes the body of slot name under dir into body, a pointer,
// and reports a hit. A missing, unreadable, corrupt or truncated
// file is a miss, and so is a slot of another version or key, or a
// body that does not decode into body's type.
func Read(dir, name string, version int, key string, body any) bool {
	data, err := os.ReadFile(Path(dir, name))
	if err != nil {
		return false
	}
	var env envelope[json.RawMessage]
	if json.Unmarshal(data, &env) != nil || env.Version != version || env.Key != key {
		return false
	}
	return json.Unmarshal(env.Body, body) == nil
}
