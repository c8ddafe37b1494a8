package repos

import (
	"fmt"

	"modissense/internal/model"
)

// Sink binds the Social-Info, Text and Visits repositories into the Data
// Collection module's output interface.
type Sink struct {
	Social *SocialInfoRepo
	Texts  *TextRepo
	Visits *VisitsRepo
}

// NewSink validates and builds the sink.
func NewSink(social *SocialInfoRepo, texts *TextRepo, visits *VisitsRepo) (*Sink, error) {
	if social == nil || texts == nil || visits == nil {
		return nil, fmt.Errorf("repos: sink repositories must be non-nil")
	}
	return &Sink{Social: social, Texts: texts, Visits: visits}, nil
}

// StoreFriends implements social.Sink.
func (s *Sink) StoreFriends(userID int64, friends []model.Friend) error {
	return s.Social.StoreFriends(userID, friends)
}

// StoreComment implements social.Sink.
func (s *Sink) StoreComment(c model.Comment) error {
	return s.Texts.StoreComment(c)
}

// StoreVisits implements social.Sink: the account's pass is one batch.
func (s *Sink) StoreVisits(visits []model.Visit) error {
	return s.Visits.StoreBatch(visits)
}
