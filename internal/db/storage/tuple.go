package storage

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"slices"

	"repro/internal/db/value"
)

// EncodeTuple serializes a row into buf (reused if large enough) and
// returns the encoded bytes. Format per value: 1 type byte, then a
// fixed 8-byte payload for Int/Date/Float, 1 byte for Bool, a 2-byte
// length prefix plus bytes for Str, nothing for Null.
func EncodeTuple(vals []value.Value, buf []byte) []byte {
	buf = buf[:0]
	for _, v := range vals {
		buf = append(buf, byte(v.T))
		switch v.T {
		case value.Int, value.Date:
			var tmp [8]byte
			binary.LittleEndian.PutUint64(tmp[:], uint64(v.I))
			buf = append(buf, tmp[:]...)
		case value.Float:
			var tmp [8]byte
			binary.LittleEndian.PutUint64(tmp[:], math.Float64bits(v.F))
			buf = append(buf, tmp[:]...)
		case value.Str:
			var tmp [2]byte
			binary.LittleEndian.PutUint16(tmp[:], uint16(len(v.S)))
			buf = append(buf, tmp[:]...)
			buf = append(buf, v.S...)
		case value.Bool:
			b := byte(0)
			if v.I != 0 {
				b = 1
			}
			buf = append(buf, b)
		case value.Null:
			// type byte only
		}
	}
	return buf
}

var errTruncated = errors.New("storage: truncated tuple")

// DecodeTuple deserializes every column of a row into dst and returns
// it; it is DecodeColumns with a nil mask.
func DecodeTuple(data []byte, dst []value.Value) ([]value.Value, error) {
	return DecodeColumns(data, dst, nil)
}

// DecodeColumns deserializes a row into dst, decoding only the
// columns the need mask marks: column i is decoded when need is nil
// or need[i] is true, and comes back as NULL otherwise, without its
// string being copied. Skipped columns are still bounds-checked and
// their type bytes validated, so masked and full decodes reject
// exactly the same inputs.
//
// dst is reused when its capacity holds the row; otherwise the row is
// allocated once, at the tuple's arity. Decoded strings are copies,
// so the values outlive the page the bytes came from.
func DecodeColumns(data []byte, dst []value.Value, need []bool) ([]value.Value, error) {
	dst = dst[:0]
	for i := 0; i < len(data); {
		t := value.Type(data[i])
		n, err := payloadLen(t, data[i+1:])
		if err != nil {
			return nil, err
		}
		if len(dst) == cap(dst) {
			dst = slices.Grow(dst, countValues(data[i:]))
		}
		i++
		col := len(dst)
		v := value.Value{T: value.Null}
		if need == nil || col < len(need) && need[col] {
			p := data[i : i+n]
			switch t {
			case value.Int, value.Date:
				v = value.Value{T: t, I: int64(binary.LittleEndian.Uint64(p))}
			case value.Float:
				v = value.NewFloat(math.Float64frombits(binary.LittleEndian.Uint64(p)))
			case value.Str:
				v = value.NewStr(string(p[2:]))
			case value.Bool:
				v = value.NewBool(p[0] != 0)
			}
		}
		dst = append(dst, v)
		i += n
	}
	return dst, nil
}

// payloadLen returns the length of the payload that follows type byte
// t, checked against rest, the bytes after the type byte.
func payloadLen(t value.Type, rest []byte) (int, error) {
	n := 0
	switch t {
	case value.Int, value.Date, value.Float:
		n = 8
	case value.Str:
		if len(rest) < 2 {
			return 0, errTruncated
		}
		n = 2 + int(binary.LittleEndian.Uint16(rest))
	case value.Bool:
		n = 1
	case value.Null:
	default:
		return 0, fmt.Errorf("storage: bad type byte %d", t)
	}
	if n > len(rest) {
		return 0, errTruncated
	}
	return n, nil
}

// countValues returns how many values an encoded tuple holds, counting
// a malformed tail as one value: the capacity DecodeColumns sizes a
// fresh row to.
func countValues(data []byte) int {
	count := 0
	for i := 0; i < len(data); count++ {
		n, err := payloadLen(value.Type(data[i]), data[i+1:])
		if err != nil {
			return count + 1
		}
		i += 1 + n
	}
	return count
}
