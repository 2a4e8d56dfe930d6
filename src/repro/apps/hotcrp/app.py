"""HotCRP application logic under information flow control.

The original HotCRP protects users with "hundreds of conditionals" in
application code.  Here the queries are ordinary; the *labels* hide what
a user may not see.  The two regression attacks of section 6.2 become
trivially harmless:

* sorting papers by status leaks nothing, because invisible decisions
  arrive as NULLs (outer joins + Query by Label, section 6.3);
* abusing the search feature leaks nothing, because a search predicate
  over ``Decisions`` only ever sees visible tuples.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ...core.process import IFCProcess
from ...db.engine import Database
from ...errors import AuthorityError
from ...platform.runtime import IFRuntime
from .schema import (
    PC_MEMBERS_VIEW,
    SCHEMA_SQL,
    contact_tag_name,
    decision_tag_name,
    review_tag_name,
)


class HotCRPApp:
    """Conference management with DIFC.

    The trusted base: this class's account/chair bootstrap methods (tag
    creation and labelling of incoming data) and the review-delegation
    closure — a few dozen lines, mirroring section 6.3.
    """

    def __init__(self, db: Database, runtime: IFRuntime):
        self.db = db
        self.runtime = runtime
        self.authority = db.authority
        self.service = self.authority.create_principal("hotcrp-service")
        self.all_contacts = self.authority.create_compound_tag(
            "all_contacts", owner=self.service.id)
        self.accounts: Dict[str, Tuple[int, int]] = {}  # email -> (cid, pid)
        self.chair_email: Optional[str] = None
        self._next_contact = 1
        self._next_paper = 1
        self._next_review = 1
        self._service_session = db.connect(
            IFCProcess(self.authority, self.service.id))
        self._service_session.execute_script(SCHEMA_SQL)
        # The PCMembers declassifying view is created by the service,
        # which owns all_contacts (the creator must hold the authority
        # being bound in, section 4.3).
        self._service_session.execute(PC_MEMBERS_VIEW)

    # ------------------------------------------------------------------
    # trusted bootstrap (tags + labelling of incoming data)
    # ------------------------------------------------------------------
    def register(self, email: str, password: str, *, first: str = "",
                 last: str = "", affiliation: str = "",
                 is_pc: bool = False, is_chair: bool = False) -> int:
        contact_id = self._next_contact
        self._next_contact += 1
        principal = self.authority.create_principal(
            "contact:%d:%s" % (contact_id, email))
        tag = self.authority.create_tag(
            contact_tag_name(contact_id), owner=principal.id,
            compounds=(self.all_contacts.id,), creator=self.service.id)
        process = IFCProcess(self.authority, principal.id)
        session = self.db.connect(process)
        process.add_secrecy(tag.id)
        session.insert("ContactInfo", contactId=contact_id, email=email,
                       password=password, firstName=first, lastName=last,
                       affiliation=affiliation, phone="555-%04d" % contact_id,
                       isPC=is_pc, isChair=is_chair)
        process.declassify(tag.id)
        self.accounts[email] = (contact_id, principal.id)
        if is_chair:
            self.chair_email = email
        return contact_id

    def principal_of(self, email: str) -> int:
        return self.accounts[email][1]

    def contact_of(self, email: str) -> int:
        return self.accounts[email][0]

    def session_for(self, email: str):
        """An application session acting as the given user."""
        process = self.runtime.spawn(self.principal_of(email))
        return process, self.db.connect(process)

    # ------------------------------------------------------------------
    # papers and conflicts
    # ------------------------------------------------------------------
    def submit_paper(self, author_email: str, title: str) -> int:
        paper_id = self._next_paper
        self._next_paper += 1
        _process, session = self.session_for(author_email)
        contact_id = self.contact_of(author_email)
        # The FK into ContactInfo crosses labels ({} vs {c-contact});
        # the author is authoritative for their own contact tag and must
        # name it explicitly (Foreign Key Rule, section 5.2.2).
        contact_tag = contact_tag_name(contact_id)
        session.insert("Papers", declassifying=(contact_tag,),
                       paperId=paper_id, title=title, authorId=contact_id,
                       submitted_ts=self.db.clock())
        # Authors always conflict with their own papers.
        session.insert("PaperConflicts", declassifying=(contact_tag,),
                       paperId=paper_id, contactId=contact_id)
        return paper_id

    # ------------------------------------------------------------------
    # reviews
    # ------------------------------------------------------------------
    def add_review(self, reviewer_email: str, paper_id: int, score: int,
                   comments: str) -> int:
        """Write a review, protected by a fresh per-review tag.

        The tag is owned by the review author and immediately delegated
        to the chair (both are authoritative, section 6.2)."""
        review_id = self._next_review
        self._next_review += 1
        reviewer_principal = self.principal_of(reviewer_email)
        tag = self.authority.create_tag(review_tag_name(review_id),
                                        owner=reviewer_principal)
        process, session = self.session_for(reviewer_email)
        if self.chair_email is not None:
            process.delegate(tag.id, self.principal_of(self.chair_email))
        process.add_secrecy(tag.id)
        # The row references both Papers ({}) and the reviewer's
        # ContactInfo ({c-contact}); both symmetric differences must be
        # named, and the reviewer is authoritative for both tags.
        session.insert("PaperReview",
                       declassifying=(tag.name, contact_tag_name(
                           self.contact_of(reviewer_email))),
                       reviewId=review_id, paperId=paper_id,
                       reviewerId=self.contact_of(reviewer_email),
                       score=score, comments=comments)
        process.declassify(tag.id)
        return review_id

    def delegate_reviews_to_pc(self) -> int:
        """The chair's authority closure: delegate each review's tag to
        every PC member without a conflict on that paper (section 6.2).

        Returns the number of delegations performed."""
        chair_principal = self.principal_of(self.chair_email)
        process = self.runtime.spawn(chair_principal)
        session = self.db.connect(process)
        closure = process.make_closure(
            "delegate-reviews", lambda: self._delegate_reviews(session,
                                                               process),
            principal=chair_principal)
        return process.call_closure(closure)

    def _delegate_reviews(self, session, process) -> int:
        pc = self._service_pc_ids()
        count = 0
        for review_id, tag_name in self._all_review_tags():
            tag = self.authority.tags.lookup(tag_name)
            if not self.authority.has_authority(process.principal, tag.id):
                continue
            # Read the review's paper under contamination, then drop the
            # tag again — delegation needs an empty label (section 3.2).
            process.add_secrecy(tag.id)
            row = session.execute(
                "SELECT paperId FROM PaperReview WHERE reviewId = ?",
                (review_id,)).first()
            process.declassify(tag.id)
            if row is None:
                continue
            paper_id = row[0]
            conflicted = {r[0] for r in session.query(
                "SELECT contactId FROM PaperConflicts WHERE paperId = ?",
                (paper_id,))}
            for contact_id in pc:
                if contact_id in conflicted:
                    continue
                principal = self._principal_by_contact(contact_id)
                try:
                    self.authority.delegate(tag.id, process.principal,
                                            principal, process=process)
                    count += 1
                except AuthorityError:
                    continue
        return count

    def _all_review_tags(self) -> List[Tuple[int, str]]:
        found = []
        for tag in self.authority.tags.all_tags():
            name = tag.name
            if name.startswith("r") and name.endswith("-review"):
                try:
                    review_id = int(name[1:-len("-review")])
                except ValueError:
                    continue
                found.append((review_id, name))
        return sorted(found)

    def _service_pc_ids(self) -> List[int]:
        probe = IFCProcess(self.authority, self.service.id)
        session = self.db.connect(probe)
        probe.add_secrecy(self.all_contacts.id)
        ids = [r[0] for r in session.query(
            "SELECT contactId FROM ContactInfo WHERE isPC = TRUE")]
        probe.declassify(self.all_contacts.id)
        return ids

    def _principal_by_contact(self, contact_id: int) -> int:
        for email, (cid, principal) in self.accounts.items():
            if cid == contact_id:
                return principal
        raise KeyError("no account for contact %d" % contact_id)

    # ------------------------------------------------------------------
    # decisions
    # ------------------------------------------------------------------
    def record_decision(self, paper_id: int, outcome: str) -> None:
        """Chair records a decision under a per-paper tag (section 6.2:
        not available to authors or conflicted PC members until release)."""
        chair_principal = self.principal_of(self.chair_email)
        tag = self.authority.create_tag(decision_tag_name(paper_id),
                                        owner=chair_principal)
        process = self.runtime.spawn(chair_principal)
        session = self.db.connect(process)
        process.add_secrecy(tag.id)
        session.insert("Decisions", declassifying=(tag.name,),
                       paperId=paper_id, outcome=outcome)
        process.declassify(tag.id)

    def release_decision(self, paper_id: int) -> None:
        """Officially release: delegate the decision tag to the author."""
        chair_principal = self.principal_of(self.chair_email)
        process = self.runtime.spawn(chair_principal)
        author = self.db.connect(process).execute(
            "SELECT authorId FROM Papers WHERE paperId = ?",
            (paper_id,)).scalar()
        tag = self.authority.tags.lookup(decision_tag_name(paper_id))
        process.delegate(tag.id, self._principal_by_contact(author))

    # ------------------------------------------------------------------
    # user-facing queries (untrusted application code)
    # ------------------------------------------------------------------
    def pc_members(self, email: str) -> List[Tuple[str, str]]:
        """The PC listing page, through the declassifying view."""
        _process, session = self.session_for(email)
        return [(r[0], r[1]) for r in session.query(
            "SELECT firstName, lastName FROM PCMembers ORDER BY lastName")]

    def papers_by_status(self, email: str) -> List[Dict]:
        """The 'sort by status' page — the section 6.2 leak regression.

        The outer join yields NULL outcomes for decisions the user may
        not see, so the ordering reveals nothing."""
        process, session = self.session_for(email)
        contact = self.contact_of(email)
        for paper in session.query(
                "SELECT paperId FROM Papers WHERE authorId = ?", (contact,)):
            tag_name = decision_tag_name(paper[0])
            try:
                tag = self.authority.tags.lookup(tag_name)
            except Exception:
                continue
            if self.authority.has_authority(process.principal, tag.id):
                process.add_secrecy(tag.id)
        rows = session.query(
            "SELECT p.paperId, p.title, d.outcome "
            "FROM Papers p LEFT JOIN Decisions d ON d.paperId = p.paperId "
            "ORDER BY d.outcome DESC, p.paperId")
        visible = [{"paper": r[0], "title": r[1], "status": r[2]}
                   for r in rows]
        for tag_id in list(process.label):
            process.declassify(tag_id)
        return visible

    def search_decided(self, email: str, outcome: str) -> List[int]:
        """The search-abuse regression: only visible decisions match."""
        _process, session = self.session_for(email)
        return [r[0] for r in session.query(
            "SELECT paperId FROM Decisions WHERE outcome = ? ORDER BY paperId",
            (outcome,))]

    def my_reviews(self, email: str, paper_id: int) -> List[Dict]:
        """Reviews of a paper, as visible to this user.

        The application tries every review tag it is authoritative for;
        everything else stays invisible, no conditionals required."""
        process, session = self.session_for(email)
        visible: List[Dict] = []
        for review_id, tag_name in self._all_review_tags():
            tag = self.authority.tags.lookup(tag_name)
            if not self.authority.has_authority(process.principal, tag.id):
                continue
            process.add_secrecy(tag.id)
            row = session.execute(
                "SELECT reviewId, score, comments FROM PaperReview "
                "WHERE reviewId = ? AND paperId = ?",
                (review_id, paper_id)).first()
            if row is not None:
                visible.append({"review": row[0], "score": row[1],
                                "comments": row[2]})
            process.declassify(tag.id)
        return visible
