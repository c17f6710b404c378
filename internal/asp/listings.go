package asp

// The paper's two ASP programs, verbatim (Listings 3 and 4). They are
// the ground truth the Problem encoding in match must correspond to:
//
//   - a selection group per element of G1 with candidates in G2 realizes
//     the cardinality-1 choice rules;
//   - label mismatches are pruned during grounding, realizing the
//     label-preservation constraints;
//   - at-most-one sets realize the injectivity constraints;
//   - implications realize the endpoint-preservation constraints;
//   - atom weights realize cost/3 with the #minimize directive.
//
// TestEncodingRealizesListings in listings_test.go checks the
// correspondence on concrete graphs by solving both encodings of small
// instances and comparing against hand-computed answers.

// Listing3GraphSimilarity is the paper's graph-similarity program: an
// exact isomorphism on structure and labels (Section 3.4).
const Listing3GraphSimilarity = `{h(X,Y) : n2(Y,_)} = 1 :- n1(X,_).
{h(X,Y) : n1(X,_)} = 1 :- n2(Y,_).
{h(X,Y) : e2(Y,_,_,_)} = 1 :- e1(X,_,_,_).
{h(X,Y) : e1(X,_,_,_)} = 1 :- e2(Y,_,_,_).
:- X <> Y, h(X,Z), h(Y,Z).
:- X <> Y, h(Z,Y), h(Z,X).
:- n1(X,L), h(X,Y), not n2(Y,L).
:- n2(Y,L), h(X,Y), not n1(X,L).
:- e1(E1,_,_,L), h(E1,E2), not e2(E2,_,_,L).
:- e2(E2,_,_,L), h(E1,E2), not e1(E1,_,_,L).
:- e1(E1,X,_,_), h(E1,E2), e2(E2,Y,_,_), not h(X,Y).
:- e1(E1,_,X,_), h(E1,E2), e2(E2,_,Y,_), not h(X,Y).`

// Listing4SubgraphIsomorphism is the paper's approximate subgraph
// isomorphism program with the property-mismatch cost minimization
// (Section 3.5).
const Listing4SubgraphIsomorphism = `{h(X,Y) : n2(Y,_)} = 1 :- n1(X,_).
{h(X,Y) : e2(Y,_,_,_)} = 1 :- e1(X,_,_,_).
:- X <> Y, h(X,Z), h(Y,Z).
:- X <> Y, h(Z,Y), h(Z,X).
:- n1(X,L), h(X,Y), not n2(Y,L).
:- e1(E1,_,_,L), h(E1,E2), not e2(E2,_,_,L).
:- e1(E1,X,_,_), h(E1,E2), e2(E2,Y,_,_), not h(X,Y).
:- e1(E1,_,X,_), h(E1,E2), e2(E2,_,Y,_), not h(X,Y).
cost(X,K,0) :- p1(X,K,V), h(X,Y), p2(Y,K,V).
cost(X,K,1) :- p1(X,K,V), h(X,Y), p2(Y,K,W), V <> W.
cost(X,K,1) :- p1(X,K,V), h(X,Y), not p2(Y,K,_).
#minimize { PC,X,K : cost(X,K,PC) }.`
