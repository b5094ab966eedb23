package wire

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"mime"
	"mime/multipart"
	"net/url"
	"sort"
	"strconv"
	"strings"
	"time"
)

// SpecVersion is the current request-spec version. A spec may omit the
// field (treated as current) or state it explicitly; any other value
// is rejected so a client compiled against a future revision fails
// loudly instead of being silently misinterpreted.
const SpecVersion = 1

// Duration is a time.Duration that marshals as a Go duration string
// ("30s", "1m30s") and also accepts a bare JSON number of seconds.
type Duration time.Duration

func (d Duration) MarshalJSON() ([]byte, error) {
	return json.Marshal(time.Duration(d).String())
}

func (d *Duration) UnmarshalJSON(b []byte) error {
	var v any
	if err := json.Unmarshal(b, &v); err != nil {
		return err
	}
	switch x := v.(type) {
	case string:
		dd, err := time.ParseDuration(x)
		if err != nil {
			return fmt.Errorf("bad duration %q: %v", x, err)
		}
		*d = Duration(dd)
		return nil
	case float64:
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return fmt.Errorf("bad duration %v", x)
		}
		*d = Duration(x * float64(time.Second))
		return nil
	default:
		return fmt.Errorf("duration must be a string like %q or a number of seconds", "30s")
	}
}

// MeshSpec is the versioned request spec of /v1/mesh: every per-job
// knob the query string historically carried, as one JSON document
// that can also travel in a request body. Query parameters and the
// JSON body parse into this same struct through one shared validation
// path, so the two surfaces can never drift. When a request carries
// both, the body spec wins wholesale — individual query parameters are
// not merged into it.
type MeshSpec struct {
	// Version is the spec revision; 0 (absent) and SpecVersion are
	// accepted.
	Version int `json:"version,omitempty"`
	// Format selects the response encoding: "vtk" (default) or "off".
	// It is per-waiter — excluded from the tuning variant, folded into
	// the entity tag.
	Format string `json:"format,omitempty"`
	// Delta overrides the sparsity parameter δ (0 = session template).
	Delta float64 `json:"delta,omitempty"`
	// MaxElements caps the final mesh size (0 = template).
	MaxElements int `json:"max_elements,omitempty"`
	// MaxRadiusEdge overrides the rule-R4 bound; values below the
	// paper's provable bound 2 are rejected (0 = template).
	MaxRadiusEdge float64 `json:"max_radius_edge,omitempty"`
	// MinFacetAngle overrides the rule-R1 planar bound in degrees
	// (0 = template).
	MinFacetAngle float64 `json:"min_facet_angle,omitempty"`
	// DeltaScale coarsens the effective δ by a factor ≥ 1 — a cheap
	// preview tier: 2 means half the sampling density per axis (~8×
	// fewer samples). It composes with Delta (or the template's δ when
	// Delta is 0) and is the knob the brownout controller's degradation
	// ladder turns under overload, so it is part of the variant key:
	// a scaled mesh is a different mesh. 0 or 1 = no scaling.
	DeltaScale float64 `json:"delta_scale,omitempty"`
	// Timeout caps the job's total time, queue wait included
	// (0 = server default).
	Timeout Duration `json:"timeout,omitempty"`
	// Size is an optional per-request size function (rule R5),
	// available only through the JSON spec — the query surface stays
	// exactly what it always was.
	Size *SizeSpec `json:"size,omitempty"`
}

// SizeSpec describes a per-request size function (the backend compiles
// it to the engine's size function): per-tissue circumradius bounds and/or
// ball-shaped focus regions, combined by pointwise minimum.
type SizeSpec struct {
	// PerLabel bounds circumradii per tissue label (JSON object keys
	// are decimal labels, 0-255).
	PerLabel map[string]float64 `json:"per_label,omitempty"`
	// Default is the bound for labels without a PerLabel entry
	// (0 = unbounded).
	Default float64 `json:"default,omitempty"`
	// Balls are focus regions refined to H within R of Center, ramping
	// to HOut beyond 2R (HOut 0 = unbounded outside).
	Balls []BallSpec `json:"balls,omitempty"`
}

// BallSpec is one focus region of a SizeSpec.
type BallSpec struct {
	Center [3]float64 `json:"center"`
	R      float64    `json:"r"`
	H      float64    `json:"h"`
	HOut   float64    `json:"h_out,omitempty"`
}

// checkVersion validates a spec-version field.
func checkVersion(v int) error {
	if v != 0 && v != SpecVersion {
		return fmt.Errorf("unsupported spec version %d (this server speaks version %d)", v, SpecVersion)
	}
	return nil
}

// checkKnob rejects NaN/Inf/negative values for an optional positive
// knob (0 = unset).
func checkKnob(name string, v float64) error {
	if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
		return fmt.Errorf("bad %s=%g (want a positive finite number)", name, v)
	}
	return nil
}

// Validate is the single validation path shared by the query and body
// surfaces: everything parseMeshParams historically enforced, plus the
// size-spec rules. It defaults an empty Format to "vtk".
func (m *MeshSpec) Validate() error {
	if err := checkVersion(m.Version); err != nil {
		return err
	}
	if m.Format == "" {
		m.Format = "vtk"
	}
	if m.Format != "vtk" && m.Format != "off" {
		return fmt.Errorf("unknown format %q (want vtk or off)", m.Format)
	}
	for name, v := range map[string]float64{
		"delta":           m.Delta,
		"max_radius_edge": m.MaxRadiusEdge,
		"min_facet_angle": m.MinFacetAngle,
	} {
		if err := checkKnob(name, v); err != nil {
			return err
		}
	}
	if m.MaxRadiusEdge != 0 && m.MaxRadiusEdge < 2 {
		// Below the paper's provable bound the refinement rules are not
		// guaranteed to terminate; a server must not accept a request
		// that can spin until the livelock watchdog.
		return fmt.Errorf("max_radius_edge=%g below the provable bound 2", m.MaxRadiusEdge)
	}
	if m.MaxElements < 0 {
		return fmt.Errorf("bad max_elements=%d", m.MaxElements)
	}
	if m.DeltaScale != 0 && (math.IsNaN(m.DeltaScale) || math.IsInf(m.DeltaScale, 0) || m.DeltaScale < 1) {
		// A scale below 1 would refine under overload — the opposite of
		// what the preview tier exists for — and gives a client a lever
		// to request arbitrarily dense meshes outside the delta knob's
		// own validation.
		return fmt.Errorf("bad delta_scale=%g (want a finite factor >= 1)", m.DeltaScale)
	}
	if m.Timeout < 0 {
		return fmt.Errorf("bad timeout=%v (want a positive duration like 30s)", time.Duration(m.Timeout))
	}
	if m.Size != nil {
		if err := m.Size.validate(); err != nil {
			return err
		}
	}
	return nil
}

func (sz *SizeSpec) validate() error {
	if len(sz.PerLabel) == 0 && len(sz.Balls) == 0 {
		return fmt.Errorf("empty size spec: want per_label and/or balls")
	}
	for k, h := range sz.PerLabel {
		l, err := strconv.Atoi(k)
		if err != nil || l < 0 || l > 255 {
			return fmt.Errorf("bad size label %q (want a decimal label 0-255)", k)
		}
		if h <= 0 || math.IsNaN(h) || math.IsInf(h, 0) {
			return fmt.Errorf("bad size for label %s: %g (want a positive finite number)", k, h)
		}
	}
	if sz.Default < 0 || math.IsNaN(sz.Default) || math.IsInf(sz.Default, 0) {
		return fmt.Errorf("bad size default %g", sz.Default)
	}
	for i, b := range sz.Balls {
		for _, c := range b.Center {
			if math.IsNaN(c) || math.IsInf(c, 0) {
				return fmt.Errorf("ball %d: non-finite center", i)
			}
		}
		if b.R <= 0 || math.IsNaN(b.R) || math.IsInf(b.R, 0) {
			return fmt.Errorf("ball %d: bad r=%g", i, b.R)
		}
		if b.H <= 0 || math.IsNaN(b.H) || math.IsInf(b.H, 0) {
			return fmt.Errorf("ball %d: bad h=%g", i, b.H)
		}
		if b.HOut < 0 || math.IsNaN(b.HOut) || math.IsInf(b.HOut, 0) {
			return fmt.Errorf("ball %d: bad h_out=%g", i, b.HOut)
		}
	}
	return nil
}

// MeshSpecFromQuery parses the historical query-parameter surface into
// a MeshSpec and validates it through the shared path. The accepted
// grammar is unchanged: format, delta, max_elements, max_radius_edge,
// min_facet_angle, timeout. The router derives its routing variant
// from the same grammar the backend will apply.
func MeshSpecFromQuery(q url.Values) (MeshSpec, error) {
	var m MeshSpec
	m.Format = q.Get("format")
	parseF := func(name string, dst *float64) error {
		v := q.Get(name)
		if v == "" {
			return nil
		}
		x, err := strconv.ParseFloat(v, 64)
		// ParseFloat accepts "NaN" and "Inf"; validate() catches those,
		// but a non-positive value must be rejected here too because 0
		// means "unset" in the struct.
		if err != nil || math.IsNaN(x) || math.IsInf(x, 0) || x <= 0 {
			return fmt.Errorf("bad %s=%q (want a positive finite number)", name, v)
		}
		*dst = x
		return nil
	}
	if err := parseF("delta", &m.Delta); err != nil {
		return m, err
	}
	if err := parseF("max_radius_edge", &m.MaxRadiusEdge); err != nil {
		return m, err
	}
	if err := parseF("min_facet_angle", &m.MinFacetAngle); err != nil {
		return m, err
	}
	if v := q.Get("max_elements"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 {
			return m, fmt.Errorf("bad max_elements=%q", v)
		}
		m.MaxElements = n
	}
	if v := q.Get("timeout"); v != "" {
		d, err := time.ParseDuration(v)
		if err != nil || d <= 0 {
			return m, fmt.Errorf("bad timeout=%q (want a positive duration like 30s)", v)
		}
		m.Timeout = Duration(d)
	}
	if err := m.Validate(); err != nil {
		return m, err
	}
	return m, nil
}

// ParseMeshSpec decodes a JSON MeshSpec strictly (unknown fields are
// errors — a typoed knob must not silently run the template) and
// validates it through the same path as the query surface.
func ParseMeshSpec(data []byte) (MeshSpec, error) {
	var m MeshSpec
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&m); err != nil {
		return m, fmt.Errorf("decoding mesh spec: %v", err)
	}
	if err := m.Validate(); err != nil {
		return m, err
	}
	return m, nil
}

// ResolveMeshSpec is body-over-params precedence, once for both tiers:
// a request's JSON spec part (non-nil) replaces the query string
// wholesale, a spec-less request parses the query.
func ResolveMeshSpec(specJSON []byte, q url.Values) (MeshSpec, error) {
	if specJSON != nil {
		return ParseMeshSpec(specJSON)
	}
	return MeshSpecFromQuery(q)
}

// Variant canonicalizes the tuning knobs — the second half of the
// (image key, variant) identity that coalescing, the cachestore, and
// the router's hash ring all agree on. The knob
// encoding is frozen — cache entries persisted by earlier builds must
// keep resolving — so the size spec, which did not exist then, is
// appended as a new segment rather than folded into the old one. Empty
// means "template verbatim".
func (m *MeshSpec) Variant() string {
	var parts []string
	if m.Delta > 0 || m.MaxElements > 0 || m.MaxRadiusEdge > 0 || m.MinFacetAngle > 0 {
		parts = append(parts, fmt.Sprintf("d=%g,n=%d,re=%g,fa=%g",
			m.Delta, m.MaxElements, m.MaxRadiusEdge, m.MinFacetAngle))
	}
	if m.Size != nil {
		parts = append(parts, "sz="+m.Size.canonical())
	}
	// Appended as its own segment, like the size spec: the knob did not
	// exist when the encoding was frozen, and a scale of 1 (or 0) must
	// produce the exact bytes earlier builds produced.
	if m.DeltaScale > 1 {
		parts = append(parts, fmt.Sprintf("ds=%g", m.DeltaScale))
	}
	return strings.Join(parts, ",")
}

// canonical renders the size spec deterministically (labels sorted
// numerically) so equal specs — regardless of JSON key order — share a
// coalescing flight and a cache entry, and unequal ones never do.
func (sz *SizeSpec) canonical() string {
	var b strings.Builder
	if len(sz.PerLabel) > 0 {
		labels := make([]int, 0, len(sz.PerLabel))
		for k := range sz.PerLabel {
			l, _ := strconv.Atoi(k)
			labels = append(labels, l)
		}
		sort.Ints(labels)
		b.WriteString("pl{")
		for i, l := range labels {
			if i > 0 {
				b.WriteByte(';')
			}
			fmt.Fprintf(&b, "%d:%g", l, sz.PerLabel[strconv.Itoa(l)])
		}
		b.WriteByte('}')
		if sz.Default > 0 {
			fmt.Fprintf(&b, "def=%g", sz.Default)
		}
	}
	for _, ball := range sz.Balls {
		fmt.Fprintf(&b, "b(%g,%g,%g;%g;%g;%g)",
			ball.Center[0], ball.Center[1], ball.Center[2], ball.R, ball.H, ball.HOut)
	}
	return b.String()
}

// SplitSpecImage splits one request body stream into its JSON spec
// part (nil when the request carries none) and its image payload,
// using the declared Content-Type. Two surfaces are accepted:
//
//   - raw body: the entire body is the NRRD image and there is no spec
//     part — the historical /v1/mesh surface, byte-for-byte unchanged;
//   - multipart/form-data: part "image" is the NRRD payload and part
//     "spec", when present, is the JSON document. A spec part wins
//     wholesale over query parameters (body-over-params precedence —
//     the two are never merged).
//
// It is the resolution the backend handlers apply, exported so the
// router derives its routing key from exactly the bytes the backend
// will hash. Size capping is the caller's job (wrap body in an
// http.MaxBytesReader); an overflow stays reachable through errors.As.
// declared is the body's Content-Length (negative when unknown), which
// ReadSized presizes the image's buffer from.
func SplitSpecImage(contentType string, body io.Reader, declared int64) (spec, image []byte, err error) {
	mt, params, _ := mime.ParseMediaType(contentType)
	if mt != "multipart/form-data" {
		raw, err := ReadSized(body, declared)
		if err != nil {
			return nil, nil, err
		}
		return nil, raw, nil
	}
	boundary := params["boundary"]
	if boundary == "" {
		return nil, nil, fmt.Errorf("multipart request without a boundary")
	}
	mr := multipart.NewReader(body, boundary)
	for {
		p, perr := mr.NextPart()
		if perr == io.EOF {
			break
		}
		if perr != nil {
			return nil, nil, fmt.Errorf("reading multipart body: %w", perr)
		}
		name := p.FormName()
		partLen := int64(-1)
		if name == "image" {
			partLen = declared // all but the framing and a small spec
		}
		data, rerr := ReadSized(p, partLen)
		p.Close()
		if rerr != nil {
			return nil, nil, fmt.Errorf("reading part %q: %w", name, rerr)
		}
		switch name {
		case "spec":
			spec = data
		case "image":
			image = data
		}
	}
	if image == nil {
		return nil, nil, fmt.Errorf("multipart request without an %q part", "image")
	}
	return spec, image, nil
}

// SplitBuffered is SplitSpecImage over a body already read whole, as the
// router holds one to replay it: a plain body is its own image, not a
// copy of it.
func SplitBuffered(contentType string, raw []byte) (spec, image []byte, err error) {
	if mt, _, _ := mime.ParseMediaType(contentType); mt != "multipart/form-data" {
		return nil, raw, nil
	}
	return SplitSpecImage(contentType, bytes.NewReader(raw), int64(len(raw)))
}
