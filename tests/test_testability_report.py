"""Unit tests for the HDL front end's optimise flag."""


from repro.hdl import compile_source


class TestHdlOptimizeFlag:
    SOURCE = """
    design opt;
    input a, b;
    output o;
    begin
      c := 2 + 3;
      t1 := a * b;
      t2 := a * b;   -- CSE candidate
      o := t1 + t2;
      junk := a - b; -- dead
    end
    """

    def test_unoptimised_keeps_everything(self):
        dfg = compile_source(self.SOURCE)
        assert len(dfg) == 5

    def test_optimised_smaller_same_behaviour(self):
        from repro.rtl import evaluate_dfg
        plain = compile_source(self.SOURCE)
        optimised = compile_source(self.SOURCE, optimize=True, bits=8)
        assert len(optimised) < len(plain)
        for a, b in ((3, 4), (7, 9)):
            assert (evaluate_dfg(plain, {"a": a, "b": b}, 8)["o"]
                    == evaluate_dfg(optimised, {"a": a, "b": b}, 8)["o"])
