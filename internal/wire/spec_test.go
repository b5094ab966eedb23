package wire

import (
	"net/url"
	"testing"
	"time"
)

func queryValues(qs string) url.Values {
	q, _ := url.ParseQuery(qs)
	return q
}

// TestVariantGolden pins the tuning-variant encoding: the pre-spec
// knob segment is a compatibility contract (persisted cache entries
// resolve through it), and the size segment must be
// canonical — same spec, same string, regardless of JSON key order.
func TestVariantGolden(t *testing.T) {
	cases := []struct {
		name string
		spec MeshSpec
		want string
	}{
		{"empty", MeshSpec{}, ""},
		{"format only", MeshSpec{Format: "off", Timeout: Duration(time.Second)}, ""},
		{"all knobs", MeshSpec{Delta: 0.5, MaxElements: 1000, MaxRadiusEdge: 2.2, MinFacetAngle: 25},
			"d=0.5,n=1000,re=2.2,fa=25"},
		{"delta only", MeshSpec{Delta: 2.5}, "d=2.5,n=0,re=0,fa=0"},
		{"size only", MeshSpec{Size: &SizeSpec{PerLabel: map[string]float64{"1": 2}}},
			"sz=pl{1:2}"},
		{"knobs and size", MeshSpec{Delta: 2.5, Size: &SizeSpec{
			PerLabel: map[string]float64{"2": 0.5, "1": 2}, Default: 3,
			Balls: []BallSpec{{Center: [3]float64{8, 8, 8}, R: 4, H: 0.5}},
		}}, "d=2.5,n=0,re=0,fa=0,sz=pl{1:2;2:0.5}def=3b(8,8,8;4;0.5;0)"},
	}
	for _, c := range cases {
		if got := c.spec.Variant(); got != c.want {
			t.Errorf("%s: variant = %q, want %q", c.name, got, c.want)
		}
	}
}

// TestMeshSpecJSONQueryAgree: the same knobs through the JSON body and
// the query string parse to the same spec — one validation path, no
// drift.
func TestMeshSpecJSONQueryAgree(t *testing.T) {
	fromJSON, err := ParseMeshSpec([]byte(
		`{"format": "off", "delta": 0.5, "max_elements": 1000, "max_radius_edge": 2.2, "min_facet_angle": 25, "timeout": "30s"}`))
	if err != nil {
		t.Fatal(err)
	}
	fromQuery, err := MeshSpecFromQuery(queryValues(
		"format=off&delta=0.5&max_elements=1000&max_radius_edge=2.2&min_facet_angle=25&timeout=30s"))
	if err != nil {
		t.Fatal(err)
	}
	if fromJSON != fromQuery {
		t.Errorf("JSON spec %+v != query spec %+v", fromJSON, fromQuery)
	}
	if fromJSON.Variant() != fromQuery.Variant() {
		t.Errorf("variant mismatch: %q vs %q", fromJSON.Variant(), fromQuery.Variant())
	}
}
