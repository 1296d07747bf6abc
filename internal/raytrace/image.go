package raytrace

import (
	"fmt"
	"image"
	"image/color"
	"image/png"
	"io"
	"os"
)

// Image is an RGB image buffer assembled from chunks — the "pic" record the
// merger accumulates.
type Image struct {
	W, H int
	Pix  []byte // 3 bytes per pixel, row-major
}

// NewImage allocates a black image.
func NewImage(w, h int) *Image {
	return &Image{W: w, H: h, Pix: make([]byte, 3*w*h)}
}

// SetChunk copies a rendered chunk into place. Setting the same chunk again
// changes nothing, so an assembly step that is re-run (a retried merge box)
// is harmless.
func (im *Image) SetChunk(c Chunk) {
	if c.W != im.W {
		panic(fmt.Sprintf("raytrace: chunk width %d != image width %d", c.W, im.W))
	}
	copy(im.Pix[3*im.W*c.Y0:], c.Pix)
}

// ByteSize declares the image's wire size (pixel payload plus header) for
// transfer accounting, following the mpi.ByteSizer convention.
func (im *Image) ByteSize() int { return len(im.Pix) + 32 }

// At returns the pixel at (x, y) as 8-bit RGB.
func (im *Image) At(x, y int) (r, g, b byte) {
	i := 3 * (y*im.W + x)
	return im.Pix[i], im.Pix[i+1], im.Pix[i+2]
}

// WritePPM writes the image in binary PPM (P6) format.
func (im *Image) WritePPM(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "P6\n%d %d\n255\n", im.W, im.H); err != nil {
		return err
	}
	_, err := w.Write(im.Pix)
	return err
}

// WritePNG encodes the image as PNG.
func (im *Image) WritePNG(w io.Writer) error {
	rgba := image.NewRGBA(image.Rect(0, 0, im.W, im.H))
	for y := 0; y < im.H; y++ {
		for x := 0; x < im.W; x++ {
			r, g, b := im.At(x, y)
			rgba.SetRGBA(x, y, color.RGBA{R: r, G: g, B: b, A: 255})
		}
	}
	return png.Encode(w, rgba)
}

// SaveFile writes the image to path; the format is chosen by extension
// (.png or .ppm).
func (im *Image) SaveFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if len(path) > 4 && path[len(path)-4:] == ".png" {
		if err := im.WritePNG(f); err != nil {
			return err
		}
	} else {
		if err := im.WritePPM(f); err != nil {
			return err
		}
	}
	return f.Close()
}

// Equal reports whether two images have identical dimensions and pixels.
func (im *Image) Equal(other *Image) bool {
	if im.W != other.W || im.H != other.H || len(im.Pix) != len(other.Pix) {
		return false
	}
	for i := range im.Pix {
		if im.Pix[i] != other.Pix[i] {
			return false
		}
	}
	return true
}
