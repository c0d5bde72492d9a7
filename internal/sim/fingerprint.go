package sim

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"reflect"
	"strconv"
)

// FingerprintSchema versions the canonical Config encoding below. Bump it
// whenever the encoding itself changes meaning (renamed fields, changed
// ordering rules); adding or removing Config fields needs no bump because
// field names participate in the digest, so any struct change already
// yields fresh fingerprints.
const FingerprintSchema = "sim-config/v1"

// Fingerprint returns a stable hex digest of every simulation-affecting
// Config field, across nested structs (policy options, memory, arbiter)
// and slices (e.g. ForcedBRRIP masks). Two Configs with equal fingerprints
// produce identical simulations for the same workload, because the machine
// is deterministic in its Config (see the package comment).
//
// Config has no field tagged `fingerprint:"-"`; the tag serves
// Result.Fingerprint, which leaves AppResult.Sampled out (see
// SampleEstimate).
func (c Config) Fingerprint() string {
	h := sha256.New()
	io.WriteString(h, FingerprintSchema)
	fingerprintValue(h, reflect.ValueOf(c))
	return hex.EncodeToString(h.Sum(nil))
}

// ResultFingerprintSchema versions the canonical Result encoding used by
// Result.Fingerprint.
const ResultFingerprintSchema = "sim-result/v1"

// Fingerprint returns a stable hex digest of every field of the Result,
// exact to the last bit (floats are encoded losslessly). Two Results with
// equal fingerprints are identical; the batch-invariance and determinism
// tests compare runs through it.
func (r Result) Fingerprint() string {
	h := sha256.New()
	io.WriteString(h, ResultFingerprintSchema)
	fingerprintValue(h, reflect.ValueOf(r))
	return hex.EncodeToString(h.Sum(nil))
}

// fingerprintValue writes a canonical encoding of v. Field names and
// explicit delimiters make the encoding prefix-free enough that distinct
// configs cannot collide by concatenation accidents. Unsupported kinds
// panic so that a future Config field of an unhandled type fails loudly in
// every test instead of silently fingerprinting to nothing.
func fingerprintValue(w io.Writer, v reflect.Value) {
	switch v.Kind() {
	case reflect.Struct:
		t := v.Type()
		io.WriteString(w, "{")
		for i := 0; i < v.NumField(); i++ {
			f := t.Field(i)
			if f.Tag.Get("fingerprint") == "-" {
				continue
			}
			io.WriteString(w, "|"+f.Name+"=")
			fingerprintValue(w, v.Field(i))
		}
		io.WriteString(w, "}")
	case reflect.Bool:
		fmt.Fprintf(w, "%t", v.Bool())
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		fmt.Fprintf(w, "%d", v.Int())
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		fmt.Fprintf(w, "%d", v.Uint())
	case reflect.Float32, reflect.Float64:
		io.WriteString(w, strconv.FormatFloat(v.Float(), 'g', -1, 64))
	case reflect.String:
		fmt.Fprintf(w, "%q", v.String())
	case reflect.Slice, reflect.Array:
		fmt.Fprintf(w, "[%d:", v.Len())
		for i := 0; i < v.Len(); i++ {
			io.WriteString(w, ",")
			fingerprintValue(w, v.Index(i))
		}
		io.WriteString(w, "]")
	default:
		panic(fmt.Sprintf("sim: config field kind %s is not fingerprintable", v.Kind()))
	}
}
