package lib

import "testing"

// unreadHelper is declared in a test file, where nothing is judged.
func unreadHelper() {}

func TestOnlyTested(t *testing.T) {
	if OnlyTested() != 2 || limit != 4 {
		t.Fatal("corpus values moved")
	}
}
