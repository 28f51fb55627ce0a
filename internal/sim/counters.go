package sim

import (
	"fmt"
	"reflect"
)

// Counter-block arithmetic for the time-parallel merge path: segment
// results carry measured-region deltas of the flat uint64 stats blocks
// (frontend.Stats, uopcache.Stats, core.Stats, cache.Stats), and the
// merge sums them back together. Both helpers walk the struct by
// reflection so a newly added counter field is picked up automatically;
// any non-uint64, non-struct field is a programming error and panics at
// first use (the sim package's own tests exercise every block).

// SubCounters returns the field-wise difference b−a over every uint64
// counter in T, recursing into nested structs (bpred.H2PStats inside
// frontend.Stats). T must consist exclusively of uint64 fields and
// nested structs of the same shape.
func SubCounters[T any](a, b T) T {
	var out T
	subCounters(reflect.ValueOf(&out).Elem(), reflect.ValueOf(a), reflect.ValueOf(b))
	return out
}

func subCounters(dst, a, b reflect.Value) {
	switch a.Kind() {
	case reflect.Uint64:
		dst.SetUint(b.Uint() - a.Uint())
	case reflect.Struct:
		for i := 0; i < a.NumField(); i++ {
			subCounters(dst.Field(i), a.Field(i), b.Field(i))
		}
	default:
		panic(fmt.Sprintf("sim: SubCounters: unsupported field kind %s in %s", a.Kind(), a.Type()))
	}
}

// AddCounters adds src into dst field-wise over every uint64 counter in
// T, with the same shape contract as SubCounters. tpar's fold uses it
// to sum per-segment counter deltas in segment order.
func AddCounters[T any](dst *T, src T) {
	addCounters(reflect.ValueOf(dst).Elem(), reflect.ValueOf(src))
}

func addCounters(dst, src reflect.Value) {
	switch src.Kind() {
	case reflect.Uint64:
		dst.SetUint(dst.Uint() + src.Uint())
	case reflect.Struct:
		for i := 0; i < src.NumField(); i++ {
			addCounters(dst.Field(i), src.Field(i))
		}
	default:
		panic(fmt.Sprintf("sim: AddCounters: unsupported field kind %s in %s", src.Kind(), src.Type()))
	}
}
