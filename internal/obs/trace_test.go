package obs

import (
	"context"
	"fmt"
	"sync"
	"testing"
)

func TestSpanTreeAndView(t *testing.T) {
	tr := NewTrace("req-1", "http:search")
	root := tr.Root()
	scatter := root.Child("scatter")
	for i := 0; i < 3; i++ {
		c := scatter.Child("region")
		c.SetAttrInt("rows", int64(10*i))
		c.End()
	}
	scatter.End()
	merge := root.Child("merge")
	merge.SetAttr("order", "interest")
	merge.End()
	tr.Finish()

	v := tr.View()
	if v.RequestID != "req-1" || v.Root.Name != "http:search" {
		t.Fatalf("view = %+v", v)
	}
	if len(v.Root.Children) != 2 {
		t.Fatalf("root children = %d, want 2", len(v.Root.Children))
	}
	sc := v.Root.Children[0]
	if sc.Name != "scatter" || len(sc.Children) != 3 {
		t.Fatalf("scatter view = %+v", sc)
	}
	if sc.Children[1].Attrs["rows"] != "10" {
		t.Fatalf("region attrs = %v", sc.Children[1].Attrs)
	}
	if v.DurationMicros < 0 || sc.StartMicros < 0 {
		t.Fatal("negative timings")
	}
}

func TestSpanNilSafety(t *testing.T) {
	var s *Span
	c := s.Child("x")
	if c != nil {
		t.Fatal("nil span must produce nil children")
	}
	c.SetAttr("a", "b")
	c.SetAttrInt("n", 1)
	c.End()
	if SpanFromContext(context.Background()) != nil {
		t.Fatal("bare context must carry no span")
	}
}

func TestSpanConcurrentChildren(t *testing.T) {
	tr := NewTrace("req-2", "root")
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := tr.Root().Child("child")
			c.SetAttr("k", "v")
			c.End()
		}()
	}
	wg.Wait()
	tr.Finish()
	if got := len(tr.View().Root.Children); got != 16 {
		t.Fatalf("children = %d, want 16", got)
	}
}

func TestContextSpanPropagation(t *testing.T) {
	tr := NewTrace("req-3", "root")
	ctx := ContextWithSpan(context.Background(), tr.Root())
	child := SpanFromContext(ctx).Child("inner")
	child.End()
	tr.Finish()
	if len(tr.View().Root.Children) != 1 {
		t.Fatal("context-propagated child missing")
	}
}

func TestTraceStoreEviction(t *testing.T) {
	ts := NewTraceStore(3)
	for i := 0; i < 5; i++ {
		ts.Put(NewTrace(fmt.Sprintf("id-%d", i), "r"))
	}
	if len(ts.m) != 3 {
		t.Fatalf("len = %d, want 3", len(ts.m))
	}
	if _, ok := ts.Get("id-0"); ok {
		t.Fatal("oldest trace not evicted")
	}
	if _, ok := ts.Get("id-4"); !ok {
		t.Fatal("newest trace missing")
	}
	// Replacing an existing ID must not evict.
	ts.Put(NewTrace("id-4", "replacement"))
	if len(ts.m) != 3 {
		t.Fatalf("len after replace = %d", len(ts.m))
	}
	tr, _ := ts.Get("id-4")
	if tr.View().Root.Name != "replacement" {
		t.Fatal("replacement not stored")
	}
	ts.Put(nil) // must not panic
}
