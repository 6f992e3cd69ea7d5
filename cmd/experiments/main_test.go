package main

import (
	"reflect"
	"strings"
	"testing"
)

func TestParseOnly(t *testing.T) {
	for _, tc := range []struct {
		only string
		want []string // nil: rejected
	}{
		{"", strings.Split(artifactNames(), ",")},
		{"fig4", []string{"fig4"}},
		{"fig4,table6", []string{"fig4", "table6"}},
		{" fig6 , fig6", []string{"fig6"}},
		{"spf,concentration", []string{"spf", "concentration"}},
		{"fig9", nil},
		{"fig4,tabel6", nil},
		{"fig4,", nil},
		{"infer", nil}, // a section of the deleted -bench mode
	} {
		selected, err := parseOnly(tc.only)
		if (err == nil) != (tc.want != nil) {
			t.Errorf("parseOnly(%q) error = %v, want rejected %v", tc.only, err, tc.want == nil)
			continue
		}
		var got []string
		for _, a := range artifacts {
			if selected[a.name] {
				got = append(got, a.name)
			}
		}
		if !reflect.DeepEqual(got, tc.want) {
			t.Errorf("parseOnly(%q) selects %v, want %v", tc.only, got, tc.want)
		}
		if err != nil && !strings.Contains(err.Error(), artifactNames()) {
			t.Errorf("parseOnly(%q) error %q does not list the accepted names", tc.only, err)
		}
	}
}
