//! Longest match span of a compiled workload.
//!
//! A match can depend on at most its last `span` bytes, so a scan that
//! starts `span` bytes before a match end still finds that match. B007
//! flags plans without a finite span, and `rap-swap` bounds an outgoing
//! tenant's drain (Q005) with it.

use rap_compiler::Compiled;

/// Longest possible match span of a compiled workload, in bytes: every
/// match ending at byte `e` is also found by scanning only the `span`
/// bytes before `e`. Patterns with unbounded loops have no finite span
/// (returns `None`).
pub fn max_match_span(compiled: &[Compiled]) -> Option<usize> {
    let mut span = 0usize;
    for c in compiled {
        match c {
            Compiled::Nfa(img) => {
                // A cycle in the automaton means unbounded matches.
                if has_cycle(&img.nfa) {
                    return None;
                }
                span = span.max(img.nfa.len());
            }
            Compiled::Nbva(img) => {
                let total: u64 = img
                    .nbva
                    .states()
                    .iter()
                    .map(|s| u64::from(s.width().max(1)))
                    .sum();
                if has_cycle_nbva(&img.nbva) {
                    return None;
                }
                span = span.max(total as usize);
            }
            Compiled::Lnfa(img) => {
                span = span.max(img.max_chain_len());
            }
        }
    }
    Some(span)
}

/// Iterative cycle detection (white/gray/black DFS) over a successor
/// function that borrows each state's list.
fn digraph_has_cycle<'a>(n: usize, succ: impl Fn(usize) -> &'a [u32]) -> bool {
    let mut color = vec![0u8; n]; // 0 white, 1 gray, 2 black
    let mut stack: Vec<(usize, usize)> = Vec::new();
    for start in 0..n {
        if color[start] != 0 {
            continue;
        }
        color[start] = 1;
        stack.push((start, 0));
        while let Some(&(v, i)) = stack.last() {
            let edges = succ(v);
            if i < edges.len() {
                stack.last_mut().expect("just peeked").1 += 1;
                let w = edges[i] as usize;
                match color[w] {
                    0 => {
                        color[w] = 1;
                        stack.push((w, 0));
                    }
                    1 => return true,
                    _ => {}
                }
            } else {
                color[v] = 2;
                stack.pop();
            }
        }
    }
    false
}

fn has_cycle(nfa: &rap_automata::nfa::Nfa) -> bool {
    digraph_has_cycle(nfa.len(), |v| &nfa.states()[v].succ)
}

fn has_cycle_nbva(nbva: &rap_automata::nbva::Nbva) -> bool {
    digraph_has_cycle(nbva.len(), |v| &nbva.states()[v].succ)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rap_compiler::{Compiler, CompilerConfig};

    fn compile(sources: &[&str]) -> Vec<Compiled> {
        let compiler = Compiler::new(CompilerConfig::default());
        sources
            .iter()
            .map(|s| compiler.compile_str(s).expect("compiles"))
            .collect()
    }

    #[test]
    fn span_of_bounded_patterns() {
        let compiled = compile(&["abc", "x{40}y", "a(b|c)d"]);
        // x{40}y: 41 states + the prefix-less x BV of width 40 → span 41.
        assert_eq!(max_match_span(&compiled), Some(41));
    }

    #[test]
    fn unbounded_span_blocks_sharding() {
        let compiled = compile(&["a.*b"]);
        assert_eq!(max_match_span(&compiled), None);
    }
}
