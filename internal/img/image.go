// Package img provides the segmented multi-label 3D image substrate
// that PI2M meshes: a voxel grid of tissue labels with world-space
// spacing, surface-voxel classification, and sub-voxel isosurface
// intersection, plus synthetic phantoms standing in for the paper's
// CT/MR atlases (IRCAD abdominal, SPL knee, SPL head-neck).
package img

import (
	"fmt"

	"repro/internal/geom"
)

// Label identifies a tissue. Label 0 is the background (outside every
// object O); nonzero labels are foreground tissues.
type Label uint8

// Image is a segmented 3D image: NX*NY*NZ voxels with world-space
// voxel spacing. Voxel (i,j,k) is centered at
// ((i+0.5)*Spacing.X, (j+0.5)*Spacing.Y, (k+0.5)*Spacing.Z); the image
// occupies the world box [0, NX*Spacing.X] x ... x [0, NZ*Spacing.Z].
//
// Images are immutable after construction and safe for concurrent
// reads.
type Image struct {
	NX, NY, NZ int
	Spacing    geom.Vec3
	inv        geom.Vec3 // 1/Spacing componentwise, for hot lookups
	data       []Label
}

// New returns a zero-filled (all background) image.
func New(nx, ny, nz int, spacing geom.Vec3) *Image {
	if nx <= 0 || ny <= 0 || nz <= 0 {
		panic(fmt.Sprintf("img: invalid dimensions %dx%dx%d", nx, ny, nz))
	}
	if spacing.X <= 0 || spacing.Y <= 0 || spacing.Z <= 0 {
		panic(fmt.Sprintf("img: invalid spacing %v", spacing))
	}
	return &Image{
		NX: nx, NY: ny, NZ: nz,
		Spacing: spacing,
		inv:     geom.Vec3{X: 1 / spacing.X, Y: 1 / spacing.Y, Z: 1 / spacing.Z},
		data:    make([]Label, nx*ny*nz),
	}
}

func (im *Image) index(i, j, k int) int { return (k*im.NY+j)*im.NX + i }

// At returns the label of voxel (i,j,k); out-of-range indices are
// background.
func (im *Image) At(i, j, k int) Label {
	if i < 0 || j < 0 || k < 0 || i >= im.NX || j >= im.NY || k >= im.NZ {
		return 0
	}
	return im.data[im.index(i, j, k)]
}

// Set assigns the label of voxel (i,j,k). It is intended for image
// construction only and must not race with readers.
func (im *Image) Set(i, j, k int, l Label) {
	im.data[im.index(i, j, k)] = l
}

// VoxelCenter returns the world coordinates of voxel (i,j,k)'s center.
func (im *Image) VoxelCenter(i, j, k int) geom.Vec3 {
	return geom.Vec3{
		X: (float64(i) + 0.5) * im.Spacing.X,
		Y: (float64(j) + 0.5) * im.Spacing.Y,
		Z: (float64(k) + 0.5) * im.Spacing.Z,
	}
}

// Voxel returns the indices of the voxel containing world point p.
// Points outside the image map to out-of-range indices (whose label is
// background by At's convention).
func (im *Image) Voxel(p geom.Vec3) (i, j, k int) {
	return int(p.X * im.inv.X), int(p.Y * im.inv.Y), int(p.Z * im.inv.Z)
}

// LabelAt returns the label at world point p (nearest-voxel lookup).
func (im *Image) LabelAt(p geom.Vec3) Label {
	return im.labelAt(p.X, p.Y, p.Z)
}

// labelAt is LabelAt on bare coordinates, small enough to inline into
// the surface marches that call it once per sample.
func (im *Image) labelAt(x, y, z float64) Label {
	if x < 0 || y < 0 || z < 0 {
		return 0
	}
	// A coordinate too large for an int converts to a negative one; the
	// unsigned comparison rejects both ends at once.
	i, j, k := int(x*im.inv.X), int(y*im.inv.Y), int(z*im.inv.Z)
	if uint(i) >= uint(im.NX) || uint(j) >= uint(im.NY) || uint(k) >= uint(im.NZ) {
		return 0
	}
	return im.data[(k*im.NY+j)*im.NX+i]
}

// Inside reports whether world point p lies inside the foreground
// object O (any nonzero label).
func (im *Image) Inside(p geom.Vec3) bool { return im.LabelAt(p) != 0 }

// Bounds returns the world-space bounding box of the image.
func (im *Image) Bounds() (lo, hi geom.Vec3) {
	return geom.Vec3{}, geom.Vec3{
		X: float64(im.NX) * im.Spacing.X,
		Y: float64(im.NY) * im.Spacing.Y,
		Z: float64(im.NZ) * im.Spacing.Z,
	}
}

// MinSpacing returns the smallest voxel spacing component, the natural
// resolution unit for surface marching and the sampling parameter δ.
func (im *Image) MinSpacing() float64 {
	s := im.Spacing.X
	if im.Spacing.Y < s {
		s = im.Spacing.Y
	}
	if im.Spacing.Z < s {
		s = im.Spacing.Z
	}
	return s
}

// IsSurfaceVoxel reports whether voxel (i,j,k) is a surface voxel: a
// foreground voxel with at least one 6-neighbor of a different label
// (including a different tissue or the background). This is the
// paper's definition (Section 3).
func (im *Image) IsSurfaceVoxel(i, j, k int) bool {
	l := im.At(i, j, k)
	if l == 0 {
		return false
	}
	return im.At(i-1, j, k) != l || im.At(i+1, j, k) != l ||
		im.At(i, j-1, k) != l || im.At(i, j+1, k) != l ||
		im.At(i, j, k-1) != l || im.At(i, j, k+1) != l
}

// SurfaceVoxels returns the indices of all surface voxels, flattened
// as the image's linear index, in increasing order.
func (im *Image) SurfaceVoxels() []int {
	var out []int
	for k := 0; k < im.NZ; k++ {
		for j := 0; j < im.NY; j++ {
			out = im.AppendSurfaceRow(out, j, k)
		}
	}
	return out
}

// AppendSurfaceRow appends the linear indices of the surface voxels of
// X row (j,k), in increasing order, and returns the extended slice. It
// only reads the image, so rows may be scanned concurrently (the
// distance transform seeds itself one row per parallel slice).
func (im *Image) AppendSurfaceRow(dst []int, j, k int) []int {
	nx := im.NX
	base := im.index(0, j, k)
	if j == 0 || k == 0 || j == im.NY-1 || k == im.NZ-1 || nx < 3 {
		// On the image border a neighbor is out of range.
		for i := 0; i < nx; i++ {
			if im.IsSurfaceVoxel(i, j, k) {
				dst = append(dst, base+i)
			}
		}
		return dst
	}
	// Interior row: the six neighbors are at fixed offsets in the label
	// slice, read without per-voxel index arithmetic or range checks.
	plane := nx * im.NY
	row := im.data[base : base+nx]
	south, north := im.data[base-nx:base], im.data[base+nx:base+2*nx]
	below, above := im.data[base-plane:base-plane+nx], im.data[base+plane:base+plane+nx]
	if im.IsSurfaceVoxel(0, j, k) {
		dst = append(dst, base)
	}
	for i := 1; i < nx-1; i++ {
		l := row[i]
		if l != 0 && (row[i-1] != l || row[i+1] != l || south[i] != l ||
			north[i] != l || below[i] != l || above[i] != l) {
			dst = append(dst, base+i)
		}
	}
	if im.IsSurfaceVoxel(nx-1, j, k) {
		dst = append(dst, base+nx-1)
	}
	return dst
}

// Unindex converts a linear voxel index back to (i,j,k).
func (im *Image) Unindex(idx int) (i, j, k int) {
	i = idx % im.NX
	j = (idx / im.NX) % im.NY
	k = idx / (im.NX * im.NY)
	return
}

// NumVoxels returns the total voxel count.
func (im *Image) NumVoxels() int { return len(im.data) }

// LabelVolumes returns, for each label present, the number of voxels
// carrying it (excluding background).
func (im *Image) LabelVolumes() map[Label]int {
	m := make(map[Label]int)
	for _, l := range im.data {
		if l != 0 {
			m[l]++
		}
	}
	return m
}

// SurfacePoint finds the point where segment p→q crosses a label
// interface, refined by bisection to within tol of the true voxelized
// interface. The segment is first marched in steps of half the minimum
// spacing to bracket the first label change starting from p. ok is
// false when the labels of p and q agree at every sampled position.
func (im *Image) SurfacePoint(p, q geom.Vec3, tol float64) (geom.Vec3, bool) {
	lp := im.LabelAt(p)
	d := q.Sub(p)
	dist := d.Norm()
	if dist == 0 {
		return geom.Vec3{}, false
	}
	step := im.MinSpacing() / 2
	n := int(dist/step) + 1

	// Bracket the first sample with a different label. Samples are
	// p.Lerp(q, t), spelled out on the precomputed d.
	prevT := 0.0
	foundT := -1.0
	for s := 1; s <= n; s++ {
		t := float64(s) / float64(n)
		if im.labelAt(p.X+t*d.X, p.Y+t*d.Y, p.Z+t*d.Z) != lp {
			foundT = t
			break
		}
		prevT = t
	}
	if foundT < 0 {
		return geom.Vec3{}, false
	}

	// Bisect [prevT, foundT] down to tol.
	lo, hi := prevT, foundT
	for width := tol / dist; hi-lo > width; {
		mid := (lo + hi) / 2
		if im.labelAt(p.X+mid*d.X, p.Y+mid*d.Y, p.Z+mid*d.Z) != lp {
			hi = mid
		} else {
			lo = mid
		}
	}
	return p.Lerp(q, (lo+hi)/2), true
}
